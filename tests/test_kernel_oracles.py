"""Kernels at generic z against 30-digit mpmath references.

The reference values below were computed with mpmath at 30 digits by
tests/make_kernel_oracles.py (run it to reprint them): e^{I(lambda)} from its
integral representation with N = 5 Gamma factors (EXP_I_REMOVABLE at the
exact rational z), the R_s phase and the S0
integral as printed (S0, S0_FAR), S0(i t) past that integral's strip
(S0_IMAG_AXIS) and the breather couplings (xi/pi) sin(pi^2/xi)
S0(i theta_m) with S0 from the rising-factorial series of its product form,
and the constants c and F(-i pi) from their integrals as printed.  Rows are
(z, argument, reference); the S0_IMAG_AXIS argument is t, the
BREATHER_COUPLING argument the breather number m, and the constants' rows
are (z, reference).  bscat's S0 is the exchange ratio of its e^{I}, so these
rows are what tie the two to independent values.
"""

import math
import re

import pytest

from bscat.errors import DomainError
from bscat.formfactors import _breather_coupling_arg, bigF, c_const, exp_I
from bscat.model import make_model
from bscat.reflection import _rs_phase_cached, _rs_phase_direct
from bscat.smatrix import s0

EXP_I = (
    (0.3333333333333333, complex(-15.0, 0.0), complex(18.88895686615009, -18.888945309802153)),
    (0.3333333333333333, complex(-4.3, 0.0), complex(1.289327174786965, -1.2548069409032687)),
    (0.3333333333333333, complex(-0.6, 0.0), complex(0.574064907000914, -0.16723234777521584)),
    (0.3333333333333333, complex(0.0, 0.0), complex(0.5581531967908188, 0.0)),
    (0.3333333333333333, complex(1.7, 0.0), complex(0.6821156744191151, 0.47138931748554985)),
    (0.3333333333333333, complex(7.9, 0.0), complex(3.199194470630814, 3.196823188399067)),
    (0.3333333333333333, complex(15.0, 0.0), complex(18.88895686615009, 18.888945309802153)),
    (0.3333333333333333, complex(-15.0, 0.7853981633974483), complex(14.840937935402874, -22.211073205940824)),
    (0.3333333333333333, complex(-4.3, 0.7853981633974483), complex(0.9880524637880524, -1.492078301099793)),
    (0.3333333333333333, complex(-0.6, 0.7853981633974483), complex(0.3286256984079413, -0.2104935300222387)),
    (0.3333333333333333, complex(0.0, 0.7853981633974483), complex(0.3107668954592162, 0.0)),
    (0.3333333333333333, complex(1.7, 0.7853981633974483), complex(0.4436234389403517, 0.5828959207354801)),
    (0.3333333333333333, complex(7.9, 0.7853981633974483), complex(2.5110485021844613, 3.761427497706001)),
    (0.3333333333333333, complex(15.0, 0.7853981633974483), complex(14.840937935402874, 22.211073205940824)),
    (0.3333333333333333, complex(-15.0, -0.7853981633974483), complex(22.211089235058985, -14.84093474699558)),
    (0.3333333333333333, complex(-4.3, -0.7853981633974483), complex(1.5400310629472513, -0.9778225636498877)),
    (0.3333333333333333, complex(-0.6, -0.7853981633974483), complex(0.7659213078360106, -0.12622193093195355)),
    (0.3333333333333333, complex(0.0, -0.7853981633974483), complex(0.7502576537542217, 0.0)),
    (0.3333333333333333, complex(1.7, -0.7853981633974483), complex(0.8748866739756108, 0.35899093132350124)),
    (0.3333333333333333, complex(7.9, -0.7853981633974483), complex(3.764716913204817, 2.5103918808199)),
    (0.3333333333333333, complex(15.0, -0.7853981633974483), complex(22.211089235058985, 14.84093474699558)),
    (0.3333333333333333, complex(-15.0, 3.141592653589793), complex(-1.634319491705791e-05, -26.713094042692624)),
    (0.3333333333333333, complex(-4.3, 3.141592653589793), complex(-0.051101109030353094, -1.8827239124720372)),
    (0.3333333333333333, complex(-0.6, 3.141592653589793), complex(-0.8573547395297552, -0.5458379660933903)),
    (0.3333333333333333, complex(0.0, 3.141592653589793), complex(1.1360455727543348, -3.8527520829919927e-31)),
    (0.3333333333333333, complex(1.7, 3.141592653589793), complex(-0.4002730962684053, 1.0589752857435968)),
    (0.3333333333333333, complex(7.9, 3.141592653589793), complex(-0.0033605510318825958, 4.532176832818009)),
    (0.3333333333333333, complex(15.0, 3.141592653589793), complex(-1.634319491705791e-05, 26.713094042692624)),
    (0.3333333333333333, complex(-15.0, 3.9269908169872414), complex(-5.211450165619685, -26.199813431706037)),
    (0.3333333333333333, complex(-4.3, 3.9269908169872414), complex(-0.3829679348978561, -1.8728159974992815)),
    (0.3333333333333333, complex(-0.6, 3.9269908169872414), complex(-1.5177526177497531, -1.252073878484847)),
    (0.3333333333333333, complex(0.0, 3.9269908169872414), complex(-2.346653734068483, 3.979186785646838e-31)),
    (0.3333333333333333, complex(1.7, 3.9269908169872414), complex(-0.5204327211578337, 1.3348536731633234)),
    (0.3333333333333333, complex(7.9, 3.9269908169872414), complex(-0.8837539448104044, 4.4464832238826935)),
    (0.3333333333333333, complex(15.0, 3.9269908169872414), complex(-5.211450165619685, 26.199813431706037)),
    (0.3333333333333333, complex(-15.0, 2.356194490192345), complex(5.2114229879097556, -26.199795272099664)),
    (0.3333333333333333, complex(-4.3, 2.356194490192345), complex(0.2991227772981577, -1.8151218410168037)),
    (0.3333333333333333, complex(-0.6, 2.356194490192345), complex(-0.3548498528338183, -0.34842352492079737)),
    (0.3333333333333333, complex(0.0, 2.356194490192345), complex(-0.40262212837921896, 6.827205179853936e-32)),
    (0.3333333333333333, complex(1.7, 2.356194490192345), complex(-0.12895661020119156, 0.8498855858789118)),
    (0.3333333333333333, complex(7.9, 2.356194490192345), complex(0.8781694335607299, 4.4427463013585395)),
    (0.3333333333333333, complex(15.0, 2.356194490192345), complex(5.2114229879097556, 26.199795272099664)),
    (0.4, complex(-15.0, 0.0), complex(4.746162109904085, -1.965923733092697)),
    (0.4, complex(-4.3, 0.0), complex(1.2344561547019066, -0.5000404986213549)),
    (0.4, complex(-0.6, 0.0), complex(0.7753401958623151, -0.10125819487945763)),
    (0.4, complex(0.0, 0.0), complex(0.760145045725507, 0.0)),
    (0.4, complex(1.7, 0.0), complex(0.8681081138026652, 0.26018537347960746)),
    (0.4, complex(7.9, 0.0), complex(1.9529479473534863, 0.8084478218135107)),
    (0.4, complex(15.0, 0.0), complex(4.746162109904085, 1.965923733092697)),
    (0.4, complex(-15.0, 0.5235987755982987), complex(4.6074217201926295, -2.272130452408204)),
    (0.4, complex(-4.3, 0.5235987755982987), complex(1.192060649062535, -0.5853045445613485)),
    (0.4, complex(-0.6, 0.5235987755982987), complex(0.6784664612104195, -0.13174132666929533)),
    (0.4, complex(0.0, 0.5235987755982987), complex(0.6570912682892245, 0.0)),
    (0.4, complex(1.7, 0.5235987755982987), complex(0.7985613926237625, 0.3245194390535342)),
    (0.4, complex(7.9, 0.5235987755982987), complex(1.8955318927723888, 0.9349533991671722)),
    (0.4, complex(15.0, 0.5235987755982987), complex(4.6074217201926295, 2.272130452408204)),
    (0.4, complex(-15.0, -0.5235987755982987), complex(4.864579357055901, -1.6512990950508322)),
    (0.4, complex(-4.3, -0.5235987755982987), complex(1.2724118334354297, -0.4151874059737842)),
    (0.4, complex(-0.6, -0.5235987755982987), complex(0.8511130604603554, -0.07824876914744394)),
    (0.4, complex(0.0, -0.5235987755982987), complex(0.8391881657705713, 0.0)),
    (0.4, complex(1.7, -0.5235987755982987), complex(0.927673775762637, 0.20619244564634984)),
    (0.4, complex(7.9, -0.5235987755982987), complex(2.0021355356045367, 0.6786347387015691)),
    (0.4, complex(15.0, -0.5235987755982987), complex(4.864579357055901, 1.6512990950508322)),
    (0.4, complex(-15.0, 3.141592653589793), complex(3.6325600760741104, -3.6325626423012523)),
    (0.4, complex(-4.3, 3.141592653589793), complex(0.9503156880816626, -0.9805561026286366)),
    (0.4, complex(-0.6, 3.141592653589793), complex(0.3613656895232495, -1.359902709527998)),
    (0.4, complex(0.0, 3.141592653589793), complex(-5443746451065124.0, 9.230882097349117e-16)),
    (0.4, complex(1.7, 3.141592653589793), complex(0.5914142617202447, 0.8979984227672065)),
    (0.4, complex(7.9, 3.141592653589793), complex(1.4957005219435597, 1.4969816817875468)),
    (0.4, complex(15.0, 3.141592653589793), complex(3.6325600760741104, 3.6325626423012523)),
    (0.4, complex(-15.0, 3.665191429188092), complex(3.3872035583475952, -3.8623645567444043)),
    (0.4, complex(-4.3, 3.665191429188092), complex(0.8977244736998929, -1.0412267628964167)),
    (0.4, complex(-0.6, 3.665191429188092), complex(0.6969624903876888, -1.0246230226486859)),
    (0.4, complex(0.0, 3.665191429188092), complex(1.2694028525392034, 0.0)),
    (0.4, complex(1.7, 3.665191429188092), complex(0.6402158865874297, 0.974443122604582)),
    (0.4, complex(7.9, 3.665191429188092), complex(1.395313095928429, 1.5913986117507748)),
    (0.4, complex(15.0, 3.665191429188092), complex(3.3872035583475952, 3.8623645567444043)),
    (0.4, complex(-15.0, 2.6179938779914944), complex(3.8623611201518604, -3.3872047249119754)),
    (0.4, complex(-4.3, 2.6179938779914944), complex(1.000699206752567, -0.9112684724388842)),
    (0.4, complex(-0.6, 2.6179938779914944), complex(-0.02461860503466485, -0.8099162791889003)),
    (0.4, complex(0.0, 2.6179938779914944), complex(-0.7782733521007682, 1.3197068631558353e-31)),
    (0.4, complex(1.7, 2.6179938779914944), complex(0.5636962089565679, 0.7761705319780325)),
    (0.4, complex(7.9, 2.6179938779914944), complex(1.589682883250066, 1.3958950069865526)),
    (0.4, complex(15.0, 2.6179938779914944), complex(3.8623611201518604, 3.3872047249119754)),
    (0.25, complex(-15.0, 0.0), complex(0.00038767470983750655, -731.6848650101614)),
    (0.25, complex(-4.3, 0.0), complex(0.07829306171060992, -3.3308030843801846)),
    (0.25, complex(-0.6, 0.0), complex(0.27429353196720707, -0.20164530846774378)),
    (0.25, complex(0.0, 0.0), complex(0.28365727752177355, 0.0)),
    (0.25, complex(1.7, 0.0), complex(0.21969978972279022, 0.6711636598741343)),
    (0.25, complex(7.9, 0.0), complex(0.013470917228867396, 20.977942352474198)),
    (0.25, complex(15.0, 0.0), complex(0.00038767470983750655, 731.6848650101614)),
    (0.25, complex(-15.0, 1.0471975511965976), complex(-365.8439965723453, -633.6574222119706)),
    (0.25, complex(-4.3, 1.0471975511965976), complex(-1.7141548696841968, -2.832687069073526)),
    (0.25, complex(-0.6, 1.0471975511965976), complex(-0.04225207671682721, -0.11748548275976123)),
    (0.25, complex(0.0, 1.0471975511965976), complex(2.0904493803900425e-17, 0.0)),
    (0.25, complex(1.7, 1.0471975511965976), complex(-0.30210691070881546, 0.47393004344675804)),
    (0.25, complex(7.9, 1.0471975511965976), complex(-10.512873144705651, 18.158438260597936)),
    (0.25, complex(15.0, 1.0471975511965976), complex(-365.8439965723453, 633.6574222119706)),
    (0.25, complex(-15.0, -1.0471975511965976), complex(365.8446680463488, -633.6578098856146)),
    (0.25, complex(-4.3, -1.0471975511965976), complex(1.8542088853434218, -2.9076028652778962)),
    (0.25, complex(-0.6, -1.0471975511965976), complex(0.6442425091878865, -0.19133257900686218)),
    (0.25, complex(0.0, -1.0471975511965976), complex(0.6305951154559686, 0.0)),
    (0.25, complex(1.7, -1.0471975511965976), complex(0.7518199505060695, 0.6166532621395078)),
    (0.25, complex(7.9, -1.0471975511965976), complex(10.536243574861377, 18.171883800917172)),
    (0.25, complex(15.0, -1.0471975511965976), complex(365.8446680463488, 633.6578098856146)),
    (0.25, complex(-15.0, 3.141592653589793), complex(-731.6888884511166, 0.0007753536831771527)),
    (0.25, complex(-4.3, 3.141592653589793), complex(-3.61901797335653, 0.1702295994922477)),
    (0.25, complex(-0.6, 3.141592653589793), complex(0.30851722959243494, 0.9870450170972618)),
    (0.25, complex(0.0, 3.141592653589793), complex(1.0000000000000007, -3.3913710641475616e-31)),
    (0.25, complex(1.7, 3.141592653589793), complex(-1.0411998759980248, -0.7634630746158525)),
    (0.25, complex(7.9, 3.141592653589793), complex(-21.056995508848726, -0.027043373061951887)),
    (0.25, complex(15.0, 3.141592653589793), complex(-731.6888884511166, -0.0007753536831771527)),
    (0.25, complex(-15.0, 4.1887902047863905), complex(-633.6616173543034, 365.8432158880142)),
    (0.25, complex(-4.3, 4.1887902047863905), complex(-3.2382348800712557, 1.8312954766265637)),
    (0.25, complex(-0.6, 4.1887902047863905), complex(-2.4661544630588708, 4.389673977090352)),
    (0.25, complex(0.0, 4.1887902047863905), complex(6784600483099191.0, -2.300909776018415e-15)),
    (0.25, complex(1.7, 4.1887902047863905), complex(-1.6886518600217095, -1.2148969062992516)),
    (0.25, complex(7.9, 4.1887902047863905), complex(-18.251680165176456, -10.516212343646954)),
    (0.25, complex(15.0, 4.1887902047863905), complex(-633.6616173543034, -365.8432158880142)),
    (0.25, complex(-15.0, 2.0943951023931957), complex(-633.6608419984883, -365.84187293945956)),
    (0.25, complex(-4.3, 2.0943951023931957), complex(-3.0610718375895773, -1.5459958455302962)),
    (0.25, complex(-0.6, 2.0943951023931957), complex(-0.11920975097877314, 0.12643654485928968)),
    (0.25, complex(0.0, 2.0943951023931957), complex(5.568530541686322e-17, -1.8884953348896929e-47)),
    (0.25, complex(1.7, 2.0943951023931957), complex(-0.6949643704132668, -0.0062808284157993164)),
    (0.25, complex(7.9, 2.0943951023931957), complex(-18.2245860018663, 10.469448362880975)),
    (0.25, complex(15.0, 2.0943951023931957), complex(-633.6608419984883, 365.84187293945956)),
)
EXP_I_REMOVABLE = (
    (0.3333333333333333, complex(0.0, 3.141592653589793), complex(-0.9999999999999948, 1.6956855320737712e-31)),
    (0.25, complex(0.0, 3.141592653589793), complex(1.0000000000000007, -3.3913710641475616e-31)),
)
RS_PHASE = (
    (0.3333333333333333, complex(0.3, 0.0), complex(0.12318439287018514, 0.0)),
    (0.3333333333333333, complex(-2.5, 0.0), complex(-0.6757906227410548, 0.0)),
    (0.3333333333333333, complex(11.0, 0.0), complex(0.7853745439046208, 0.0)),
    (0.3333333333333333, complex(-19.0, 0.0), complex(-0.7853981554738978, 0.0)),
    (0.3333333333333333, complex(1.2, 0.4), complex(0.4514570671792999, 0.11231663511721565)),
    (0.3333333333333333, complex(-6.0, 0.25), complex(-0.7820070422896257, 0.0008643300562192674)),
    (0.4, complex(0.3, 0.0), complex(0.05336062378805998, 0.0)),
    (0.4, complex(-2.5, 0.0), complex(-0.32093094293650326, 0.0)),
    (0.4, complex(11.0, 0.0), complex(0.39267986449184666, 0.0)),
    (0.4, complex(-19.0, 0.0), complex(-0.39269907522959135, 0.0)),
    (0.4, complex(1.2, 0.4), complex(0.20083366170918962, 0.054223615692743456)),
    (0.4, complex(-6.0, 0.25), complex(-0.3900406550763437, 0.0006629421087505929)),
    (0.25, complex(0.3, 0.0), complex(0.29559867598460415, 0.0)),
    (0.25, complex(-2.5, 0.0), complex(-1.4069935689361537, 0.0)),
    (0.25, complex(11.0, 0.0), complex(1.5707629233933191, 0.0)),
    (0.25, complex(-19.0, 0.0), complex(-1.5707963155893037, 0.0)),
    (0.25, complex(1.2, 0.4), complex(1.0229165139177683, 0.2184815888004138)),
    (0.25, complex(-6.0, 0.25), complex(-1.5659929466753273, 0.0012264992841752294)),
)
S0 = (
    (0.4, complex(0.5, 0.0), complex(-0.9760774612107891, 0.21742306620112908)),
    (0.4, complex(-3.0, 0.0), complex(-0.7463928844520202, -0.6655055687516019)),
    (0.4, complex(8.0, 0.0), complex(-0.7073806320772574, 0.7068328241967684)),
    (0.4, complex(1.0, 0.6), complex(-1.097348572578446, 0.5196469820228752)),
    (0.4, complex(-2.0, -1.0), complex(-0.6733775450343373, -0.564357419822363)),
    (0.1, complex(0.5, 0.0), complex(-0.6339941915682725, -0.7733378078548162)),
    (0.1, complex(-3.0, 0.0), complex(-0.8446659080743195, 0.5352938480283378)),
    (0.1, complex(8.0, 0.0), complex(-0.9999927609724558, -0.0038049970676423185)),
    (0.05, complex(0.5, 0.0), complex(-0.9250599603050222, 0.37982110241595407)),
    (0.05, complex(-3.0, 0.0), complex(0.360487084378824, -0.9327642049285846)),
    (0.05, complex(8.0, 0.0), complex(0.999967220577275, 0.008096775343273544)),
    (0.4, complex(0.7, 1.6), complex(-1.4930483290935903, 1.2177916660918526)),
    (0.4, complex(-1.2, 1.9), complex(-0.8997747975169123, -1.1368684296704243)),
    (0.4, complex(2.0, 1.8), complex(-0.7971728389102001, 0.8561169858417457)),
)
S0_FAR = (
    (0.05, complex(-35.0, 0.0), complex(1.0, -1.6962222923535446e-14)),
    (0.03, complex(20.0, 0.0), complex(-0.49999992657233155, -0.8660254461779187)),
)
S0_IMAG_AXIS = (
    (0.1, 1.0, -15684.11028233554),
    (0.15, 1.0, 314.185889429035),
    (0.15, 2.0, 253.47469190403865),
    (0.25, 1.2, 27.2377548153266),
    (0.3, 1.5, 17.336435179625227),
)
BREATHER_COUPLING = (
    (0.3, 1, 2.507920675325408),
    (0.27, 1, 3.0461372121130132),
    (0.22, 1, 4.214910712019393),
    (0.15, 1, 7.029270877435594),
    (0.15, 3, 58.74616230333912),
    (0.15, 5, 2.4821819933831106),
    (0.0201, 1, 62.050529522908946),
    (0.0201, 3, 4767801.3372487165),
    (0.0201, 15, 1.437563484878191e+20),
    (0.0201, 31, 2.822789144957055e+21),
    (0.0201, 47, 7302.5552861221395),
)
C_CONST = (
    (0.05, 3277.7230825890692),
    (0.1, 45.93615844968574),
    (0.2, 5.388948350317548),
    (0.25, 3.4946070309522566),
    (0.3333333333333333, 2.2511051861189615),
    (0.4, 1.7951038482467552),
    (0.6, 1.184603315344921),
    (0.75, 0.9428090415820634),
    (0.9, 0.7029055468486558),
)
BIGF_PREFACTOR = (
    (0.05, 1.0577383809000205),
    (0.1, 1.1356197748533392),
    (0.2, 1.4023213469337552),
    (0.25, 1.6473735527790185),
    (0.3333333333333333, 2.5337372794858415),
    (0.4, 4.942120658337058),
)


# the EXP_I rows at Re lambda = 0 where a Gamma argument of e^{I} is an
# integer <= 0 on bscat's grid, and what exp_I must give there.  Their
# 30-digit references are set by the 1e-16 rounding of lambda (and of z):
# the zeros read ~1e-17 and the poles ~6e15.
#   "zero": a genuine zero; exp_I returns exactly 0.
#   "pole": a genuine pole; exp_I raises a DomainError naming lambda.
#   "removable": a numerator pole meets a denominator pole; exp_I returns
#   the limit, the EXP_I_REMOVABLE reference at the exact rational z.  At
#   z = 1/4 the EXP_I reference (1.000) is that limit too; at z = 1/3 the
#   binary z splits the pair by ~1e-16 and the EXP_I reference at the float
#   lambda between them reads 1.136, while the limit is -1.
_SINGULAR = {
    (0.3333333333333333, complex(0.0, 3.141592653589793)): "removable",
    (0.4, complex(0.0, 3.141592653589793)): "pole",
    (0.25, complex(0.0, 1.0471975511965976)): "zero",
    (0.25, complex(0.0, 2.0943951023931957)): "zero",
    (0.25, complex(0.0, 3.141592653589793)): "removable",
    (0.25, complex(0.0, 4.1887902047863905)): "pole",
}


def _worst(errors):
    """The largest error, or NaN if any is NaN (Python's max skips a NaN
    that is not first)."""
    return max(errors, key=lambda e: math.inf if math.isnan(e) else e)


@pytest.mark.parametrize("z", sorted({row[0] for row in EXP_I}))
def test_exp_I(z):
    spec = make_model("bsg", z)
    worst = _worst(
        [
            abs(exp_I(lam, spec) - ref) / abs(ref)
            for zz, lam, ref in EXP_I
            if zz == z and (z, lam) not in _SINGULAR
        ]
    )
    assert worst <= 1e-11


@pytest.mark.parametrize(
    "key",
    sorted(_SINGULAR, key=str),
    ids=lambda k: f"z={k[0]:.4g}-lambda={k[1].imag:.4f}i-{_SINGULAR[k]}",
)
def test_exp_I_at_its_zeros_and_poles(key):
    z, lam = key
    assert any(row[:2] == key for row in EXP_I)
    spec = make_model("bsg", z)
    kind = _SINGULAR[key]
    if kind == "pole":
        with pytest.raises(DomainError, match=re.escape(f"pole at lambda = {lam}")):
            exp_I(lam, spec)
    elif kind == "zero":
        assert exp_I(lam, spec) == 0.0
    else:
        (ref,) = [r for zz, l, r in EXP_I_REMOVABLE if (zz, l) == key]
        assert abs(exp_I(lam, spec) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("z", sorted({row[0] for row in RS_PHASE}))
def test_rs_phase(z):
    xi = make_model("bsg", z).xi
    worst = _worst(
        [abs(_rs_phase_direct(lam, xi) - ref) for zz, lam, ref in RS_PHASE if zz == z]
    )
    assert worst <= 1e-12


@pytest.mark.parametrize("z", sorted({row[0] for row in RS_PHASE}))
def test_rs_phase_table(z):
    # the cached phase, read from the per-line tables
    xi = make_model("bsg", z).xi
    worst = _worst(
        [
            abs(_rs_phase_cached(lam.real, lam.imag, xi) - ref)
            for zz, lam, ref in RS_PHASE
            if zz == z
        ]
    )
    assert worst <= 1e-11


def test_worst_sees_nan():
    assert math.isnan(_worst([0.0, math.nan, 1.0]))


def test_s0_at_z_04():
    # each row at its own z: z = 0.4 off the real axis, up to Im theta = 1.9,
    # and the real axis at z = 0.1 and 0.05, where the integral's strip
    # half-width xi is 0.35 and 0.17
    for z, theta, ref in S0:
        assert abs(s0(theta, make_model("bsg", z)) - ref) <= 1e-12


def test_s0_far_on_the_real_axis():
    # the exchange ratio of e^{I} carries the rounding of e^{I}'s exponent,
    # which grows with |theta|/xi: 3.0e-12 at z = 0.05, theta = -35
    for z, theta, ref in S0_FAR:
        assert abs(s0(theta, make_model("bsg", z)) - ref) <= 1e-11


def test_s0_on_the_imaginary_axis():
    # past the integral's strip |Im theta| < xi, against the series of the
    # product form; S0(i t) is real there
    for z, t, ref in S0_IMAG_AXIS:
        assert abs(s0(1j * t, make_model("bsg", z)) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("z, m, ref", BREATHER_COUPLING)
def test_breather_coupling(z, m, ref):
    # the closed form against S0 past its integral's strip.  Its 2m - 1 cot
    # factors carry the rounding: worst at z = 0.0201, m = 47
    value = _breather_coupling_arg(m, make_model("bsg", z))
    assert value == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("z, ref", C_CONST)
def test_c_const(z, ref):
    # worst 2.9e-15 (z = 0.05, where log c = 8.1 carries the rounding)
    assert c_const(make_model("bsg", z)) == pytest.approx(ref, rel=5e-15, abs=0.0)


@pytest.mark.parametrize("z, ref", BIGF_PREFACTOR)
def test_bigF_prefactor(z, ref):
    # F(-i pi) is the prefactor alone: the Gamma product and the tail vanish
    value = bigF(-1j * math.pi, make_model("bsg", z))
    assert value == pytest.approx(ref, rel=5e-15, abs=0.0)
