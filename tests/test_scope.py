"""The Coxeter types of rank <= 4: `verify a` and `verify b` across the
reducible ones of rank 3 and 4 and the connected ones of rank <= 3, each
output checked against a pinned digest and each assignment's eps * alpha_w
against the twist of L, and |W| and the class count of the connected ones,
and of I2(m) for m <= 16 after `verify a` and `table`, against closed forms.
At every canonical subset L of every connected and reducible type, the
normalizer assignments of `construct_C` extend the assignments of W_L
itself.  Where the search is exhausted on a disconnected graph, the
assignments are products of the components' own.

The types come from generators over the classification, not from lists
written by hand, and their number is asserted, so a family that goes
missing fails loudly.
"""

import functools
import hashlib
import itertools
import json
import math

import pytest

from coxsol import conjectures
from coxsol.chars import det_character, sign_character, twist_character
from coxsol.cli import main
from coxsol.conjectures import construct_C, construct_parabolic_B, verify_a, verify_b
from coxsol.coxeter import _NAMED, build_group, matrix_from_spec
from oracles import fixed_space, from_json

# -- the connected types, from the classification -------------------------------------

MAX_LABEL = 6
# the one connected type of rank <= 4 that is not built (its |W|^2 table is too big)
H4 = ((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1))


def _canonical(rows):
    """The least relabelling of a Coxeter matrix, one per isomorphism class."""
    n = len(rows)
    return min(tuple(tuple(rows[p[i]][p[j]] for j in range(n)) for i in range(n))
               for p in itertools.permutations(range(n)))


def _connected(rows) -> bool:
    seen, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j, x in enumerate(rows[i]):
            if x > 2 and j not in seen:
                seen.add(j)
                todo.append(j)
    return len(seen) == len(rows)


def _finite(rows) -> bool:
    """The form -cos(pi / m_ij) is positive definite: every leading principal
    minor is positive, so is every pivot of elimination without row swaps."""
    n = len(rows)
    a = [[-math.cos(math.pi / rows[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        if a[k][k] < 1e-9:
            return False
        for i in range(k + 1, n):
            c = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= c * a[k][j]
    return True


@functools.cache
def connected_types():
    """Specs of the finite connected Coxeter types of rank <= 4 with every
    label <= MAX_LABEL, H4 left out, each named once: the Coxeter matrices are
    enumerated, kept when connected with a positive definite form, and named
    by the spec that builds an isomorphic matrix (A2 = I2(3) and B2 = I2(4)
    are named as dihedral groups)."""
    names = {}
    for spec in [f"I2({m})" for m in range(3, MAX_LABEL + 1)] + list(_NAMED):
        names.setdefault(_canonical(matrix_from_spec(spec).rows), spec)
    found = set()
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for labels in itertools.product(range(2, MAX_LABEL + 1), repeat=len(pairs)):
            rows = [[1] * n for _ in range(n)]
            for (i, j), x in zip(pairs, labels):
                rows[i][j] = rows[j][i] = x
            if _connected(rows) and _finite(rows):
                found.add(_canonical(rows))
    h4 = _canonical(H4)
    assert found - set(names) == {h4}
    return sorted(names[key] for key in found if key != h4)


# -- verify a and verify b: the reducible types and the connected ones of rank <= 3 ---


def reducible_types(ranks):
    """Specs of the products of two or more connected types whose ranks add to
    one of ranks, each product named once, its factors by rank, then name
    (I2(2) = A1xA1 is a product, not a connected type)."""
    factors = sorted((len(matrix_from_spec(spec).rows), spec) for spec in connected_types())
    out = []
    for k in range(2, max(ranks) + 1):
        for combo in itertools.combinations_with_replacement(factors, k):
            if sum(r for r, _ in combo) in ranks:
                out.append("x".join(name for _, name in combo))
    return out


# over about 2 s in-process, or (I2(6)xI2(6)) past the search cap at the top,
# where the assignments are products of the components'; they run with the
# slow tests
SLOW_B = {"I2(4)xI2(6)", "I2(5)xI2(6)", "I2(6)xI2(6)"}
SLOW_A = {"A1xH3", "I2(4)xI2(5)", "I2(4)xI2(6)", "I2(5)xI2(5)", "I2(5)xI2(6)",
          "I2(6)xI2(6)"}
CONNECTED_LOW_RANK = [spec for spec in connected_types() if len(matrix_from_spec(spec).rows) <= 3]

# (exit code, SHA-256 of stdout) of `coxsol verify a|b <type>`, recorded before
# linear characters were built on H itself and flats were joined by containment
# (`verify a` on A1xA3, A1xB3 and A1xH3 when their non bulky rank 3 subsets
# became lifts, not searches; I2(6)xI2(6), exit 4 before, when its top
# assignments became products of the components')
SCOPE_PINS = {
    "verify a A1": (0, "86be8ec7996de225b0a38ff56a37c767ca99b89fd53f8433cbd14339572ef6d1"),
    "verify b A1": (0, "dd9200d384466956e97c89d6d6ddbba8ff7cdc5aa2f7381da088f34b9537d968"),
    "verify a A3": (0, "6c682de5ea1a6cf435baff28191b3d5b100b1e798d3d8167e35c481f0829a015"),
    "verify b A3": (0, "81ba8f5dad0192ac0e6c120e1382a3c1fbb3a92670ec09246321ba11c89b02b2"),
    "verify a B3": (0, "63ab098b1016f4b7575ecad92c2613b1e9bd67b62ee11dfb5045332160fd8d98"),
    "verify b B3": (0, "30d063d2576f238dc6ecbf8b46ca21357c7d4b444c14abdeda03de3d71ab5c5e"),
    "verify a H3": (0, "c22867783178df35f6888aa3f49975f34f7767a5c64eb72a00c6639522215468"),
    "verify b H3": (0, "13c9c0b12f18401370d593f4a219ce4d14ed60730217374f52b59eae78935a39"),
    "verify a I2(3)": (0, "4c2746ce7898f15a4ba9f92ba5254ec68fc40a00403f0acef71ebd25a41d2f61"),
    "verify b I2(3)": (0, "9b4776f3549860df8b0100320fb857f5e7b949c6640e0a27b0f2af5a2f2c3470"),
    "verify a I2(4)": (0, "0b7b6b524ded023d2f4b5c570a3bfb5a7514031612702944d72e4f242a70fad4"),
    "verify b I2(4)": (0, "f9df2cbed9a6b12d6e91428bc8ca201946ebbc86ed907b70430a58d1a6334497"),
    "verify a I2(5)": (0, "9a44b0c252f2ada1db131f8147792c0476c281ed664d706ffb090837da0500a7"),
    "verify b I2(5)": (0, "95069f6d096cb0522bb1bbd5299258519eaece13b0276e8065db014f41c21c89"),
    "verify a I2(6)": (0, "babee228c8fefe1f1b96a0b3a9ed652bd49dd28897f27819af348c10f36108cf"),
    "verify b I2(6)": (0, "61a967b6732b65850c869cf7a25141fe49d9034ff16064003d9e8a34c36d6e07"),
    "verify a A1xI2(3)": (0, "33c906e6c2c6665906b257fb183419cb16e0014f472f229a3f184e0afa933e2a"),
    "verify b A1xI2(3)": (0, "0b286b764432afd593ad9805a1f9fdda63f07c34b1153ae3fbc33d5382fef105"),
    "verify a A1xI2(4)": (0, "8c32cc778af77c57adfb62d1a11273397112462eb4cabbcbfeb8ba5e5f7a0b84"),
    "verify b A1xI2(4)": (0, "47bfaafdc0fa73247f1e9dd3e4cf93cd127449134c7af6089680869f3bc0ca1d"),
    "verify a A1xI2(5)": (0, "b9f3ad063257a0a9c5f368843d7e0175d3a3b33340c2e3096b3f87487765a03f"),
    "verify b A1xI2(5)": (0, "e8346651e6ed9c45e3de0f93608c9ecc31598b57ee01333a924fdf894f5bfef3"),
    "verify a A1xI2(6)": (0, "308dd99db339cc7cccb3c0603a28588b474344263cb0d6b2463b333231563a49"),
    "verify b A1xI2(6)": (0, "d0999e92e3027b9c46cf735be74710c03d82167d34a305200b391237f3b2d269"),
    "verify a A1xA3": (0, "aa3ecb6654e3d95c9f21fa95f7c75bc13c00c1682623686c455d4a40fe3ddb65"),
    "verify b A1xA3": (0, "5d069f46d45232eb4ba2ed5ec050d580be58320dbc0b5fc66754f910d42bdbd1"),
    "verify a A1xB3": (0, "310af96fecb6e7cd76b6d8fcfe21b4450722cdd96ebcbdeb1dce9386cfd37a92"),
    "verify b A1xB3": (0, "335fb86da9789831abb4928fc458ecec39c608d0b42927b2b4c8f2968a1f7167"),
    "verify a A1xH3": (0, "82338f32bdfeaf4e53bb5de4285bdca9dcae121bebf26b6eccf9711319e87ce9"),
    "verify b A1xH3": (0, "e97f9965b87f83d66ddcf1a1429a20a3fe67f552315b12e14db976e1f9905ba9"),
    "verify a I2(3)xI2(3)":
        (0, "e51944ce07436de9415f766cd9787175fc06a83b0f7f6cd3ef0b11ea0487e747"),
    "verify b I2(3)xI2(3)":
        (0, "92052d99c42ddc6f6ce0882f25d21e4180227264714f4c9d31ab2b1831177e27"),
    "verify a I2(3)xI2(4)":
        (0, "ceb1f5ba9b33600c496f700a3eecda0c344b307062394f596b57bdcd8750adba"),
    "verify b I2(3)xI2(4)":
        (0, "4eea303043e9430ac5a32db22f0f681383e77c0f3fabc24de7bca23e814a355a"),
    "verify a I2(3)xI2(5)":
        (0, "bdaf5f09d3796b8106e8e5af4897e52ad8405692869518fcfb64946d9a0e929b"),
    "verify b I2(3)xI2(5)":
        (0, "b1cddf99823269d7ab2d66af22e4f9d81c7226fcf6d9f07a82c7d0716da716c4"),
    "verify a I2(3)xI2(6)":
        (0, "c664d8346b880d2cd285949dab3db5a5ad046bebe5bb7c92f0d8ac0afb5ce40e"),
    "verify b I2(3)xI2(6)":
        (0, "7ea2a97e89f38fb01962f6f45d23aff14858b2c907d6c90af7276d21fa965791"),
    "verify a I2(4)xI2(4)":
        (0, "970daa90ba53ac4f67f158411f2c451993d18ab029dc965892c50bf6011a4dde"),
    "verify b I2(4)xI2(4)":
        (0, "dc1abb813c894023d4b3eaf931d1075f4222c373d0f86c85789cda2302dee81c"),
    "verify a I2(4)xI2(5)":
        (0, "6e5f86a6f79deb31b11597313bf731c7256defa5da72204fac0f5850d3562efa"),
    "verify b I2(4)xI2(5)":
        (0, "b6aba6f25a5bcc39e2a47a7dd02ffd8f3c10ae27d7f0715cd29df48b2a9d6bb3"),
    "verify a I2(4)xI2(6)":
        (0, "1c975c39260eaccfea7dc07b4c37c2e2342ce9450d8331dd77f4d009cdd116bb"),
    "verify b I2(4)xI2(6)":
        (0, "b0ca2710682d256a17820d6d55960b506268811edfeabdc9db58f69dda12fe48"),
    "verify a I2(5)xI2(5)":
        (0, "3b93f5b1f85d7f0e1be0f7001b3dd233c103bc49c20d2db1304e8b2a9e29fcaa"),
    "verify b I2(5)xI2(5)":
        (0, "d20043670c1112effdc5f947882b19fb8cc5b3c5940cb766780f94e413ff6999"),
    "verify a I2(5)xI2(6)":
        (0, "885f70ac274c48e6cc75ded35c8e28f3dbe08b93a14d5d25ef9935d29fb87865"),
    "verify b I2(5)xI2(6)":
        (0, "b7c0eebf468aeb6e2c286a49f18132952ab278fcfa2da540de4e2d233de8b2b8"),
    "verify a I2(6)xI2(6)":
        (0, "7cf7661ef325981a24eab763a315ddfb58ee9c5f182bf40290fd3e8da531e3d9"),
    "verify b I2(6)xI2(6)":
        (0, "b97317db1d0a67f5b3e4eb8b76725a554a89a27949d44857f7887b5c9839cf45"),
    "verify a A1xA1xA1": (0, "e79a844aacfeb1fab38cb35c0b63e461c77441c337cda854c5be137b50b4b358"),
    "verify b A1xA1xA1": (0, "fed44619e733b657dd524acb32e62bcc4c09618c00d42553987d5fc872c8d5d8"),
    "verify a A1xA1xI2(3)":
        (0, "2d7d70d5a5bd18ce79fa30f2e0565eae807706ddbd7aacecf3cd190a6bdda846"),
    "verify b A1xA1xI2(3)":
        (0, "27bbb3bbc14ec2af7f4cece31ecddc495d817c0a470ad8f4af73052172ca0af4"),
    "verify a A1xA1xI2(4)":
        (0, "5ed84bcc450342a3c811a6f4f2c33565a758538ef59ff201a8e5fba1897dcd2e"),
    "verify b A1xA1xI2(4)":
        (0, "5fdfb871820d78f89a1c0ade7a5f945097043bff9a6a96cc2fabc063c99e9053"),
    "verify a A1xA1xI2(5)":
        (0, "cb0da9ba037130f274d0d45225d8b6b8c0356934f96826985ec79e68edd1b1d5"),
    "verify b A1xA1xI2(5)":
        (0, "6e2d8078ce39a1264dd46f3894c95de12fae23d209d4caa51af9f32214cd86d1"),
    "verify a A1xA1xI2(6)":
        (0, "7952de9a25cf7a1fd6ceea534385f791b7087637b5462dac92aa76c104145205"),
    "verify b A1xA1xI2(6)":
        (0, "047bb88e2094ad120d708a4e50dbdae935f5071c60c042d0ffc56c8dd1d7555f"),
    "verify a A1xA1xA1xA1":
        (0, "0f72ad4017d796a280f69263cf337ea950cde9e584e1650dfd053d79187e8f6e"),
    "verify b A1xA1xA1xA1":
        (0, "2681f8aac2cd4ff1e889a0e2f44c1d93543975298a747176f94552e8ab676512"),
}


def _rows(slow):
    return [pytest.param(spec, marks=pytest.mark.slow) if spec in slow else spec
            for spec in reducible_types({3, 4})]


def test_reducible_type_counts():
    assert len(reducible_types({3})) == 5
    assert len(reducible_types({4})) == 18
    assert len(set(reducible_types({3, 4}))) == 23
    assert len(CONNECTED_LOW_RANK) == 8
    assert len(SCOPE_PINS) == 2 * (23 + 8)


def _assert_pinned(report, conjecture, spec):
    """The report's JSON is what `coxsol verify` prints; the exit code is the
    one it gives the report."""
    command = f"verify {conjecture} {spec}"
    code = 0 if report.ok else 4 if report.status == "search-exhausted" else 1
    out = json.dumps(report.as_dict(), indent=2) + "\n"
    got = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == SCOPE_PINS[command], command


def _assert_verified(report, spec):
    assert report.status == "verified", spec
    assert report.residuals and all(r.is_zero() for r in report.residuals.values()), spec


def _assert_alpha_w_is_alpha_L(W, assignments, spec):
    """eps times alpha_w, the determinant on the fixed space of each
    assignment's w by row reduction, is the twist of L on the centralizer
    of w, for w cuspidal in W_L."""
    for a in assignments:
        alpha_w = det_character(W, a.centralizer, fixed_space(W, a.element))
        assert sign_character(a.centralizer) * alpha_w == \
            twist_character(W, a.L).restrict(a.centralizer), \
            (spec, a.L, W.word_str(a.element))


def check_verify_b(spec):
    W = build_group(spec)
    report = verify_b(W)
    _assert_pinned(report, "b", spec)
    _assert_verified(report, spec)
    _assert_alpha_w_is_alpha_L(W, report.assignments, spec)


def check_verify_a(spec):
    W = build_group(spec)
    report = verify_a(W)
    _assert_pinned(report, "a", spec)
    _assert_verified(report, spec)
    _assert_alpha_w_is_alpha_L(
        W, [a for sub in report.subreports for a in sub.assignments], spec)
    assert [sub.L for sub in report.subreports] == \
        [tuple(sorted(shape.canonical)) for shape in W.shapes()], spec


@pytest.mark.parametrize("spec", _rows(SLOW_B))
def test_verify_b_reducible(spec):
    check_verify_b(spec)


@pytest.mark.parametrize("spec", _rows(SLOW_A))
def test_verify_a_reducible(spec):
    check_verify_a(spec)


def test_exhausted_search_on_a_disconnected_top_takes_the_components(monkeypatch):
    """With the search cap at 1, the search at the top of I2(3)xI2(4) is
    exhausted, and its assignments are products of the rank 2 components'
    closed forms; they verify with zero residuals."""
    monkeypatch.setattr(conjectures, "SEARCH_CAP", 1)
    W = build_group("I2(3)xI2(4)")
    report = verify_b(W)
    _assert_verified(report, "I2(3)xI2(4)")
    assert {a.route for a in report.assignments} == {"components"}
    _assert_alpha_w_is_alpha_L(W, report.assignments, "I2(3)xI2(4)")


def test_a_search_under_the_cap_is_kept_on_a_disconnected_top():
    report = verify_b(build_group("I2(3)xI2(4)"))
    _assert_pinned(report, "b", "I2(3)xI2(4)")
    assert {a.route for a in report.assignments} == {"search"}


def test_exhausted_search_on_a_connected_top_stays_exhausted(monkeypatch):
    monkeypatch.setattr(conjectures, "SEARCH_CAP", 1)
    report = verify_b(build_group("B3"))
    assert report.status == "search-exhausted"
    assert not report.assignments


@pytest.mark.parametrize("spec", CONNECTED_LOW_RANK)
def test_verify_b_connected(spec):
    check_verify_b(spec)


@pytest.mark.parametrize("spec", CONNECTED_LOW_RANK)
def test_verify_a_connected(spec):
    check_verify_a(spec)


# -- conjecture C at L extends conjecture B at L ------------------------------------


# over about 2 s in-process; they run with the slow tests
SLOW_EXTENDS = {"F4", "I2(4)xI2(6)", "I2(5)xI2(6)"}


def _extension_rows():
    return [pytest.param(spec, marks=pytest.mark.slow) if spec in SLOW_EXTENDS else spec
            for spec in connected_types() + reducible_types({3, 4})]


@pytest.mark.parametrize("spec", _extension_rows())
def test_every_C_assignment_extends_its_B_assignment(spec, monkeypatch):
    """construct_C(W, L) gives the elements of construct_parabolic_B(W, L) in
    the same order, and each phi and psi restricts on C_{W_L}(w), the base
    centralizer, to the base's.  The bases are built once per L, for the
    lift and for the comparison, before construct_C runs; construct_C itself
    never searches, and every route it names is a case of the lift."""
    built = {}

    def bases_at(W, L):
        if L not in built:
            built[L] = construct_parabolic_B(W, L)
        return built[L]

    def refuse(*args, **kwargs):
        raise AssertionError("construct_C searched")

    monkeypatch.setattr(conjectures, "construct_parabolic_B", bases_at)
    W = build_group(spec)
    for shape in W.shapes():
        L = tuple(sorted(shape.canonical))
        bases = bases_at(W, L)
        with monkeypatch.context() as patched:
            patched.setattr(conjectures, "_search", refuse)
            patched.setattr(conjectures, "_search_pools", refuse)
            lifted = construct_C(W, L)
        assert {a.route for a in lifted} <= {"product", "module", "coset-split"}, (spec, L)
        assert [a.element for a in lifted] == [b.element for b in bases], (spec, L)
        for a, b in zip(lifted, bases):
            assert a.phi.restrict(b.centralizer) == b.phi, (spec, L, a.route)
            assert a.psi.restrict(b.centralizer) == b.psi, (spec, L, a.route)


# -- the connected types: |W| and classes against closed forms ---------------------


def _partitions(n: int, largest=None) -> int:
    largest = n if largest is None else largest
    if n == 0:
        return 1
    return sum(_partitions(n - k, k) for k in range(1, min(n, largest) + 1))


def closed_form(spec: str):
    """(|W|, class count) of a connected type: A_n has (n+1)! elements and
    p(n+1) classes, B_n has 2^n n! and one class per pair of partitions of
    sizes adding to n, I2(m) has 2m and (m+3)/2 (odd m) or m/2+3 (even m)."""
    if spec.startswith("I2("):
        m = int(spec[3:-1])
        return 2 * m, (m + 3) // 2 if m % 2 else m // 2 + 3
    family, n = spec[0], int(spec[1:])
    if family == "A":
        return math.factorial(n + 1), _partitions(n + 1)
    if family == "B":
        return 2 ** n * math.factorial(n), \
            sum(_partitions(k) * _partitions(n - k) for k in range(n + 1))
    return {"D4": (192, 13), "F4": (1152, 25), "H3": (120, 10)}[spec]


def test_connected_type_count():
    assert len(connected_types()) == 12


@pytest.mark.parametrize("spec", connected_types())
def test_connected_type_orders_and_classes(spec):
    W = build_group(spec)
    assert (W.order, len(W.classes)) == closed_form(spec), spec
    assert sum(c.size for c in W.classes) == W.order, spec


@pytest.mark.slow
@pytest.mark.parametrize("m", range(2, 17))
def test_rank2_theorem_for_every_m(m, capsys):
    """The paper proves its inductive conjecture in rank 2: for I2(m),
    `verify a` verifies with zero residuals and builds every assignment by a
    closed form, and `table` has |W| = 2m and one column per class."""
    spec = f"I2({m})"
    assert main(["verify", "a", spec]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "verified", spec
    reports = [data] + data["cases"]
    assert all(from_json(v).is_zero() for r in reports
               for res in r["residuals"].values() for v in res["values"]), spec
    assert all(a["route"] != "search" for case in data["cases"]
               for a in case["assignments"].values()), spec
    assert main(["table", spec, "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert (table["order"], len(table["columns"])) == closed_form(spec), spec
