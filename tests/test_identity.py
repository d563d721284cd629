"""Divergence pipeline vs the closed-form cubic, both signatures."""

import ast
import hashlib
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import folicurve
from folicurve import cli, identity
from folicurve.identity import (
    CubicCoefficients,
    GeometrySignature,
    IdentityViolation,
    LORENTZIAN,
    RIEMANNIAN,
    bracket_cubic,
    jet_A,
    neg_nH_S3,
    rotational_ode_form,
    s_squared_reduced,
    s_squared_unreduced,
    verify_squared_identity,
)
from folicurve.symexpr import (
    KAP,
    KAP1,
    KAP2,
    NU,
    ONE,
    RHO,
    RHO1,
    RHO2,
    SIG,
    X,
    Indeterminate,
    SymExpr,
    x_pow,
)

BOTH = (RIEMANNIAN, LORENTZIAN)


def substitute_cylinder(p: SymExpr) -> SymExpr:
    for ind in (Indeterminate.KAP1, Indeterminate.KAP2, Indeterminate.RHO1, Indeterminate.RHO2):
        p = p.substitute(ind, SymExpr())
    return p


class TestNormSquared:
    def test_riemannian_reduces_to_quarter_norm(self):
        reduced = (4 * s_squared_unreduced(RIEMANNIAN)).reduce_level_set()
        assert reduced == 4 * (X ** 2 * RHO ** 2 + jet_A(X, KAP, KAP1, RHO, RHO1) ** 2)

    def test_lorentzian_reduces_with_negative_radial_term(self):
        reduced = (4 * s_squared_unreduced(LORENTZIAN)).reduce_level_set()
        assert reduced == 4 * (-(X ** 2) * RHO ** 2 + jet_A(X, KAP, KAP1, RHO, RHO1) ** 2)

    def test_cylinder_jet(self):
        reduced = substitute_cylinder((4 * s_squared_unreduced(RIEMANNIAN)).reduce_level_set())
        assert reduced == 4 * X ** 2 * RHO ** 2

    @pytest.mark.parametrize("sig", BOTH, ids=lambda sig: sig.label)
    def test_reduced_s_squared_checks_its_factored_form(self, sig, monkeypatch):
        unreduced = identity.s_squared_unreduced
        monkeypatch.setattr(identity, "s_squared_unreduced",
                            lambda sig: unreduced(sig) + KAP * RHO ** 2)
        s_squared_reduced.cache_clear()
        try:
            with pytest.raises(IdentityViolation, match=sig.label):
                s_squared_reduced(sig)
        finally:
            monkeypatch.undo()
            s_squared_reduced.cache_clear()
        a = jet_A(X, KAP, KAP1, RHO, RHO1)
        assert s_squared_reduced(sig) == a ** 2 + sig.epsilon * X ** 2 * RHO ** 2


# B, the paper's display notation for -d_dt(A); no product code builds from it
JET_B = KAP1 ** 2 - (X - KAP) * KAP2 - RHO1 ** 2 - RHO * RHO2


class TestDivergenceExpansion:
    def test_t_derivative_lemma(self):
        assert jet_A(X, KAP, KAP1, RHO, RHO1).d_dt() == -JET_B

    def test_riemannian_matches_closed_form_display(self):
        a, b = jet_A(X, KAP, KAP1, RHO, RHO1), JET_B
        display = (
            2 * a ** 2 * X ** 2
            + (NU - 1) * KAP * RHO ** 2 * X ** 3
            + (NU - 2) * KAP * X * a ** 2
            + RHO ** 2 * X ** 2 * b
            - 2 * X ** 3 * KAP1 * a
            + 2 * KAP * KAP1 * X ** 2 * a
        )
        assert neg_nH_S3(RIEMANNIAN) == display

    def test_lorentzian_differs_only_in_radial_cubic_term(self):
        diff = neg_nH_S3(RIEMANNIAN) - neg_nH_S3(LORENTZIAN)
        assert diff == 2 * (NU - 1) * KAP * RHO ** 2 * X ** 3

    def test_cylinder_collapse(self):
        collapsed = substitute_cylinder(neg_nH_S3(RIEMANNIAN))
        assert collapsed == (NU - 1) * KAP * RHO ** 2 * X ** 3

    def test_output_is_sigma_free(self):
        for sig in BOTH:
            assert Indeterminate.SIG not in neg_nH_S3(sig).indeterminates()


class TestBracketCubic:
    def test_riemannian_c3(self):
        expected = (
            2 * RHO * RHO1 * KAP1
            + (NU - 2) * KAP * KAP1 ** 2
            + (NU - 1) * KAP * RHO ** 2
            - RHO ** 2 * KAP2
        )
        assert bracket_cubic(RIEMANNIAN).c3 == expected

    def test_riemannian_c2(self):
        expected = (
            (KAP1 ** 2 + RHO1 ** 2 - RHO * RHO2 + KAP * KAP2) * RHO ** 2
            + 2 * (NU - 3) * KAP * KAP1 * RHO * RHO1
            - 2 * (NU - 2) * KAP1 ** 2 * KAP ** 2
        )
        assert bracket_cubic(RIEMANNIAN).c2 == expected

    def test_signature_enters_only_through_radial_term(self):
        riem, lor = bracket_cubic(RIEMANNIAN), bracket_cubic(LORENTZIAN)
        assert riem.c3 - lor.c3 == 2 * (NU - 1) * KAP * RHO ** 2
        assert riem.c2 == lor.c2
        assert riem.c1 == lor.c1

    def test_linear_coefficient(self):
        for sig in BOTH:
            expected = KAP * (NU - 2) * (RHO * RHO1 - KAP * KAP1) ** 2
            assert bracket_cubic(sig).c1 == expected

    def test_c1_vanishes_in_dimension_two(self):
        c1 = bracket_cubic(RIEMANNIAN).c1
        assert c1.substitute(Indeterminate.NU, 2).is_zero


SRC = pathlib.Path(identity.__file__).parent


def _boundary_crossings() -> tuple[set, set]:
    """The modules under src/folicurve that import from symexpr, and those that
    raise IdentityViolation."""
    importers, raisers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
                if any(name.split(".")[-1] == "symexpr" for name in names):
                    importers.add(path.name)
            elif isinstance(node, ast.Import):
                if any(alias.name.split(".")[-1] == "symexpr" for alias in node.names):
                    importers.add(path.name)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "IdentityViolation":
                    raisers.add(path.name)
    return importers, raisers


class TestExactBoundary:
    def test_only_identity_uses_the_exact_ring(self):
        importers, raisers = _boundary_crossings()
        assert importers - {"symexpr.py"} == {"identity.py"}
        assert raisers == {"identity.py"}

    def test_identity_holds_only_exact_objects(self):
        # no clock, no serializer and no numeric error: the CLI reports, geometry rejects data
        tree = ast.parse((SRC / "identity.py").read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert imported - {"__future__"} == {"enum", "functools", "typing", ".symexpr"}
        errors = [value for value in vars(identity).values()
                  if isinstance(value, type) and issubclass(value, BaseException)
                  and value.__module__ == identity.__name__]
        assert errors == [IdentityViolation]

    def test_exact_ring_imports_nothing_from_fractions(self):
        # every coefficient is an int (identity's imports are pinned above)
        tree = ast.parse((SRC / "symexpr.py").read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "fractions" not in imported

    def test_only_symexpr_reads_or_builds_monomials(self):
        # the packed monomial key is symexpr's own format: product code combines
        # polynomials by ring operations, never term by term
        found = []
        for path in sorted(SRC.glob("*.py")):
            if path.name == "symexpr.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                builds = name == "_make" or name == "SymExpr" and (node.args or node.keywords)
                if name == "terms" or builds:
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []


# each loads ast, dis and tokenize; with its class decorations, dataclasses was a
# third of the time `import folicurve.cli` took
HEAVY_MODULES = {"dataclasses", "inspect"}


class TestLeanImport:
    def test_no_module_imports_dataclasses_or_inspect(self):
        found = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] in HEAVY_MODULES]
        assert found == []

    def test_cli_import_loads_no_heavy_module(self):
        # -I -S: no site hook and no environment loads a module on the package's
        # behalf; -B: no bytecode left in the checkout, as -I ignores PYTHONDONTWRITEBYTECODE
        script = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import folicurve.cli; "
                  f"print(sorted({HEAVY_MODULES | {'ast'}!r} & sys.modules.keys()))")
        result = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script],
                                capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"


def _violation_sites() -> tuple[int, list[str], set[str]]:
    """In identity.py: the number of IdentityViolation(...) calls, the function
    that holds each one, and the functions that call `_prove`."""
    tree = ast.parse((SRC / "identity.py").read_text())

    def calls(scope, name: str) -> list:
        return [node for node in ast.walk(scope)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]

    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    return (len(calls(tree, "IdentityViolation")),
            sorted(fn.name for fn in functions for _ in calls(fn, "IdentityViolation")),
            {fn.name for fn in functions if calls(fn, "_prove")})


class TestOneRaisePath:
    def test_identity_violation_is_built_at_three_sites(self):
        # every lemma is a (claim, residual) row of `_prove`; only the exact halving
        # and the sign check, whose failure carries P^2 - Q^2, raise for themselves
        count, sites, provers = _violation_sites()
        assert count == 3
        assert sites == ["_prove", "neg_nH_S3", "verify_squared_identity"]
        assert provers == {"s_squared_reduced", "neg_nH_S3", "rotational_ode_form"}


def _jet_arithmetic(module: str) -> list[str]:
    """`module:line` of each arithmetic BinOp outside the finite-difference
    oracle with an operand (a name or an attribute) called k1, k2, r1 or r2."""
    tree = ast.parse((SRC / module).read_text())
    oracle = {id(node) for fd in ast.walk(tree)
              if isinstance(fd, ast.FunctionDef) and fd.name == "mean_curvature_fd"
              for node in ast.walk(fd)}

    def name(operand) -> str | None:
        return getattr(operand, "id", None) or getattr(operand, "attr", None)

    return [f"{module}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and id(node) not in oracle
            and {name(node.left), name(node.right)} & {"k1", "k2", "r1", "r2"}]


# a command, and the lemma it proves before its first float
SCAN_LORENTZIAN = (["scan", "--signature", "lorentzian", "--k", "2", "--r", "1+1.5*t", "--n", "3",
                    "--t", "0:0.3"], lambda: s_squared_reduced(LORENTZIAN))
GENERATE = (["generate", "--n", "3", "--K", "1", "--t", "0:0.05"],
            lambda: rotational_ode_form(RIEMANNIAN))

# each jet formula with one sign changed, a command whose lemma rejects it, and its message
MUTATIONS = {
    "jet_A": (lambda x, k, k1, r, r1: (x - k) * k1 - r * r1,
              SCAN_LORENTZIAN, "S^2 on the leaf is not A^2 + eps x_n^2 r^2 (lorentzian)"),
    "s_squared_factored": (
        lambda eps, x, k, k1, r, r1: identity.jet_A(x, k, k1, r, r1) ** 2 - eps * (x * r) ** 2,
        SCAN_LORENTZIAN, "S^2 on the leaf is not A^2 + eps x_n^2 r^2 (lorentzian)"),
    "half_dt_K_squared": (lambda k, k1, r, r1: k * k1 + r * r1,
                          SCAN_LORENTZIAN, "d/dt (k^2 - r^2) is not 2 (k k' - r r') (lorentzian)"),
    "k_times_k1": (lambda r, r1: -r * r1,
                   GENERATE, "c2 does not vanish under the rotational constraint (riemannian)"),
    "k_times_k2": (lambda r, r1, r2, k1: r1 * r1 - r * r2 - k1 * k1,
                   GENERATE, "c2 does not vanish under the rotational constraint (riemannian)"),
    "admissibility_factor": (lambda eps, r, k1: eps * (r * r) - k1 * k1,
                             GENERATE, "S^2 is not X^2 F under the rotational constraint (riemannian)"),
    "r_times_r2": (lambda k, k1, k2, r1: k * k2 - k1 * k1 - r1 * r1,
                   GENERATE, "r r'' is not k k'' + k'^2 - r'^2 under the rotational constraint"
                             " (riemannian)"),
}


class TestOneSourcePerFormula:
    @pytest.mark.parametrize("module", ["geometry.py", "profiles.py"])
    def test_no_jet_arithmetic_outside_identity(self, module):
        # every float formula on k', k'', r', r'' is an identity function that a lemma proves
        assert _jet_arithmetic(module) == []

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_a_changed_sign_fails_its_lemma(self, name, monkeypatch, capsys):
        mutated, (argv, lemma), message = MUTATIONS[name]
        caches = (neg_nH_S3, s_squared_reduced, bracket_cubic, rotational_ode_form)
        monkeypatch.setattr(identity, name, mutated)
        for cached in caches:
            cached.cache_clear()
        try:
            with pytest.raises(IdentityViolation) as info:
                lemma()
            code = cli.main(argv)
        finally:
            monkeypatch.undo()
            for cached in caches:
                cached.cache_clear()
        assert str(info.value) == message
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", message + "\n")


def _unnamed_definitions() -> list[str]:
    """Functions, classes, methods and module-level assigned names under
    src/folicurve that no code in src/folicurve or perfbench names (as a name it
    reads, an attribute, an imported name or a string such as a `getattr`
    argument) other than by its own def or assignment."""
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")) + sorted(perfbench.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body if path.parent == SRC else ():
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [f"{path.name}:{name.id}" for target in targets
                            for name in ast.walk(target) if isinstance(name, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path.parent == SRC:
                    defined.append(f"{path.name}:{node.name}")
            elif isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):  # an assignment does not name what it binds
                    named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    exported = set(folicurve.__all__)
    return [where for where in defined
            if not ((name := where.split(":")[1]).startswith("__") and name.endswith("__"))
            and name not in named and name not in exported]


class TestNoDeadCode:
    def test_every_definition_is_named_or_exported(self):
        # a definition that only the tests call is dead weight in the product
        assert _unnamed_definitions() == []


def mutated_bracket(sig, which):
    """The bracket cubic with coefficient `which` (c1, c2 or c3) minus KAP*RHO^2."""
    cubic = bracket_cubic(sig)
    return cubic._replace(**{which: getattr(cubic, which) - KAP * RHO ** 2})


def verify_with_bracket(sig, bracket):
    """`verify_squared_identity(sig)` with `bracket` in place of the closed-form cubic."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identity, "bracket_cubic", lambda _: bracket)
        return verify_squared_identity(sig)


class TestVerification:
    def test_riemannian_passes(self):
        assert verify_squared_identity(RIEMANNIAN) == 1

    def test_lorentzian_passes(self):
        assert verify_squared_identity(LORENTZIAN) == 1

    def test_mutated_coefficient_fails(self):
        mutated = mutated_bracket(RIEMANNIAN, "c3")  # (nu-1) -> (nu-2) in the radial term
        with pytest.raises(IdentityViolation) as info:
            verify_with_bracket(RIEMANNIAN, mutated)
        assert info.value.residual is not None
        assert info.value.residual != "0"

    def test_sign_flipped_variant_fails_lorentzian(self):
        # flipping the k k'^2 / r^2 k'' / linear-coefficient signs (keeping the
        # radial and cross terms) does not square to the divergence expansion
        flipped = CubicCoefficients(
            c3=(
                2 * RHO * RHO1 * KAP1
                - (NU - 2) * KAP * KAP1 ** 2
                - (NU - 1) * KAP * RHO ** 2
                + RHO ** 2 * KAP2
            ),
            c2=(
                (KAP1 ** 2 + RHO1 ** 2 - RHO * RHO2 + KAP * KAP2) * RHO ** 2
                - 2 * (NU - 1) * KAP * KAP1 * RHO * RHO1
                + 2 * (NU - 2) * KAP1 ** 2 * KAP ** 2
            ),
            c1=-(KAP * (NU - 2) * (RHO * RHO1 - KAP * KAP1) ** 2),
        )
        with pytest.raises(IdentityViolation):
            verify_with_bracket(LORENTZIAN, flipped)

    @pytest.mark.parametrize("sig", BOTH, ids=lambda sig: sig.label)
    def test_negated_bracket_has_sign_minus_one(self, sig):
        cubic = bracket_cubic(sig)
        negated = CubicCoefficients(c3=-cubic.c3, c2=-cubic.c2, c1=-cubic.c1)
        assert verify_with_bracket(sig, negated) == -1

    @pytest.mark.parametrize("sig", BOTH, ids=lambda sig: sig.label)
    def test_success_forms_no_squares(self, sig, monkeypatch):
        p = neg_nH_S3(sig)
        q = bracket_cubic(sig).assemble()
        multiply = SymExpr.__mul__
        operands = []

        def recording(a, b):
            operands.append((a, b))
            return multiply(a, b)

        monkeypatch.setattr(SymExpr, "__mul__", recording)
        assert verify_squared_identity(sig) in (1, -1)
        monkeypatch.undo()
        assert operands  # the recorder saw the cubic being assembled
        assert not any(a == b and a in (p, q) for a, b in operands)

    @given(
        which=st.sampled_from(["c1", "c2", "c3"]),
        coeff=st.integers(min_value=-4, max_value=4).filter(bool),
        exps=st.dictionaries(
            st.sampled_from([KAP, KAP1, KAP2, RHO, RHO1, RHO2, NU]),
            st.integers(min_value=1, max_value=2),
            max_size=3,
        ),
        sig=st.sampled_from(BOTH),
    )
    @settings(max_examples=25, deadline=None)
    def test_failure_report_carries_squared_residual(self, which, coeff, exps, sig):
        monomial = coeff * ONE
        for gen, e in exps.items():
            monomial = monomial * gen ** e
        cubic = bracket_cubic(sig)
        mutated = cubic._replace(**{which: getattr(cubic, which) + monomial})
        with pytest.raises(IdentityViolation) as info:
            verify_with_bracket(sig, mutated)
        p, q = neg_nH_S3(sig), mutated.assemble()
        assert info.value.residual == (p * p - q * q).to_text()


def clear_identity_caches() -> None:
    for cached in (neg_nH_S3, s_squared_reduced, bracket_cubic):
        cached.cache_clear()


def terms_digest(p: SymExpr) -> str:
    terms = []
    for exps, coeff in p.terms():
        width = len(exps)
        while width and not exps[width - 1]:
            width -= 1
        terms.append((exps[:width], coeff))
    return hashlib.sha256(repr(terms).encode()).hexdigest()


# SHA-256 of the repr of the term list with each exponent vector stripped of its
# trailing zeros, so that an Indeterminate appended to the ring keeps every digest:
# the exponents, their insertion order and the coefficients, which fix the source
# of every compiled kernel.  Recorded from the same polynomials as the 9-column
# table before it, which was recorded when the ring still had Fraction coefficients.
GOLDEN_TERMS = {
    "s_squared_unreduced-riemannian": "785e524bca00938f3d56cb49f4eebde23fe34695d03854233f22e1d85063bb6d",
    "s_squared_reduced-riemannian": "73cdb1217f2a6f927b15fa093632867c1effe887572e9cf87b38e061714ffb41",
    "neg_nH_S3-riemannian": "5d02f3e2d04987a215f91ebf7f5f16ea9834378bcb794b1497d822261385d487",
    "ode_lead-riemannian": "cd195fd20c092feb13e5faad242859e33d798e0d386c980a9d7a1c52ea078e0a",
    "ode_rest-riemannian": "5db5fc4f95defed3ca8f1af57eee23c339f9b38a07e0a4f97dcbecb350805c4d",
    "s_squared_unreduced-lorentzian": "aa0a3a0e1b3658fd9da4163ca1bc481161732897ff73d935cf64f20694ad6f54",
    "s_squared_reduced-lorentzian": "b46383ef49147b5e7aec78e8197879a3f65e53d564e9b241e0d8bcf1bf6e64d2",
    "neg_nH_S3-lorentzian": "1f787b7738fc7f30baf1bd1f2709047d3f9ef5ec7d940c1e88d4f19c3a2c186b",
    "ode_lead-lorentzian": "cd195fd20c092feb13e5faad242859e33d798e0d386c980a9d7a1c52ea078e0a",
    "ode_rest-lorentzian": "e949837b7cd0abe115f8575308ae4aabfd6b9e1ab71858a3b84201cdf452ae99",
}


class TestIntegerProofPath:
    @pytest.mark.parametrize("sig", BOTH, ids=lambda sig: sig.label)
    def test_terms_match_the_golden_table(self, sig):
        # same keys, insertion order and coefficients: every compiled kernel keeps its bits
        lead, rest, _ = rotational_ode_form(sig)
        built = {
            "s_squared_unreduced": identity.s_squared_unreduced(sig),
            "s_squared_reduced": s_squared_reduced(sig),
            "neg_nH_S3": neg_nH_S3(sig),
            "ode_lead": lead,
            "ode_rest": rest,
        }
        for name, p in built.items():
            assert terms_digest(p) == GOLDEN_TERMS[f"{name}-{sig.label}"], name

    def test_cold_verify_builds_no_fraction(self, monkeypatch):
        built = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        if hasattr(Fraction, "_from_coprime_ints"):
            # Python 3.12+ builds arithmetic results here, without calling __new__
            coprime = Fraction._from_coprime_ints.__func__

            def counting_coprime(cls, numerator, denominator):
                built.append((numerator, denominator))
                return coprime(cls, numerator, denominator)

            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
        built.clear()
        Fraction(1, 3) + Fraction(1, 6)
        assert len(built) == 3  # both operands and their sum: it sees arithmetic results too
        built.clear()
        clear_identity_caches()
        try:
            for sig in BOTH:
                assert verify_squared_identity(sig) in (1, -1)
        finally:
            monkeypatch.undo()
            clear_identity_caches()
        assert built == []


class TestSquaredStructure:
    @pytest.mark.parametrize("sig", BOTH)
    def test_square_has_no_low_terms(self, sig):
        q = bracket_cubic(sig).assemble()
        square = q * q
        assert square.coeff_of(Indeterminate.X, 0).is_zero
        assert square.coeff_of(Indeterminate.X, 1).is_zero

    @pytest.mark.parametrize("sig", BOTH)
    def test_degree_two_coefficient_is_c1_squared(self, sig):
        cubic = bracket_cubic(sig)
        square = cubic.assemble() * cubic.assemble()
        assert square.coeff_of(Indeterminate.X, 2) == cubic.c1 * cubic.c1

    @pytest.mark.parametrize("sig", BOTH)
    def test_degree_zero_of_s6(self, sig):
        s6 = s_squared_reduced(sig) ** 3
        assert s6.coeff_of(Indeterminate.X, 0) == (RHO * RHO1 - KAP * KAP1) ** 6

    def test_gap_vanishes_exactly_when_K_is_constant(self):
        # K^2 = k^2 - r^2, so d(K^2)/dt = -2 gap with gap = r r' - k k'
        assert (KAP ** 2 - RHO ** 2).d_dt() == -2 * (RHO * RHO1 - KAP * KAP1)

    @pytest.mark.parametrize("sig", BOTH)
    def test_x_divides_p(self, sig):
        exponents = {exps[Indeterminate.X] for exps, _ in neg_nH_S3(sig).terms()}
        assert exponents and min(exponents) >= 1


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the exact texts, recorded with every coefficient stored as a Fraction
GOLDEN_OBJECTS = {
    "neg_nH_S3-riemannian": "2caf4a175415de573b8aa84d2371d916806f25f7fe6532c310156fbf3cae95ee",
    "c3-riemannian": "3e0208797f9619d645c7b9084fb44acb992fff73a75784c557b1762e14974a1f",
    "c2-riemannian": "6753ac5ead70ecfd35934f509479b2a3e0de448af57d6815060796062b8881f5",
    "c1-riemannian": "697d8fd5b42278fbf53f7dce1f43a8c0e855a6615e9d6e3f4d7099da662621ee",
    "neg_nH_S3-lorentzian": "071b5d2f1cfb8bb3eeb48e8aa71e4b9d626ff94994fdb384916634a241e2b5a9",
    "c3-lorentzian": "fb0d72b8bfe7b3791f159b94a7388211b9ecad848f3ad60b44da6df42304cf8a",
    "c2-lorentzian": "6753ac5ead70ecfd35934f509479b2a3e0de448af57d6815060796062b8881f5",
    "c1-lorentzian": "697d8fd5b42278fbf53f7dce1f43a8c0e855a6615e9d6e3f4d7099da662621ee",
}
GOLDEN_MUTATED_RESIDUALS = {
    "c1-riemannian": "b483fa93b04285b56cc4f58255bdbabc643f1cf457ee06a8d021565b162caae0",
    "c1-lorentzian": "44deb6a06f7cef51d0f5034bce3e3a7e6a706017a214c976cb177271168aa9a9",
    "c2-riemannian": "5f1a2edd638bd1c5445cc3ce6722d657690a8d17b0bff06f6058cba736faae5b",
    "c2-lorentzian": "50d77f1a392b0aeed43d66f43bb14d3515eec55f1055f3d60dc09de9cdee4c20",
    "c3-riemannian": "1326eefc49217f3acea54e2ef0041b973caf6577f28ae3dd55a7fb3c3913f3d7",
    "c3-lorentzian": "0d9e030765475954dac04cbefddb01aaecfb4403c6353eabf84d67a04870813a",
}


class TestGoldenTexts:
    @pytest.mark.parametrize("sig", BOTH, ids=lambda sig: sig.label)
    def test_exact_objects(self, sig):
        cubic = bracket_cubic(sig)
        texts = {
            "neg_nH_S3": neg_nH_S3(sig).to_text(),
            "c3": cubic.c3.to_text(),
            "c2": cubic.c2.to_text(),
            "c1": cubic.c1.to_text(),
        }
        for name, text in texts.items():
            assert sha256(text) == GOLDEN_OBJECTS[f"{name}-{sig.label}"], name

    @pytest.mark.parametrize("which", ["c1", "c2", "c3"])
    def test_mutated_residual_texts(self, which, monkeypatch, capsys):
        monkeypatch.setattr(identity, "bracket_cubic", lambda sig: mutated_bracket(sig, which))
        assert cli.main(["verify"]) == 1
        reports = json.loads(capsys.readouterr().out)
        assert [r["signature"] for r in reports] == ["riemannian", "lorentzian"]
        for report in reports:
            key = f"{which}-{report['signature']}"
            assert sha256(report["residual_text"]) == GOLDEN_MUTATED_RESIDUALS[key], key
