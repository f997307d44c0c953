"""A register of source mutations that the tests must kill.

Each entry names a module of src/coxsol, an exact fragment of its source,
the replacement, and the ids of tier-1 tests that fail once the fragment is
replaced.  tests/test_mutants.py checks that each fragment occurs exactly
once in today's source, so a refactor that moves a checked line must update
its entry, and (as a slow test) applies each mutant to a copy of src/ and
runs the named tests against that copy, one subprocess at a time.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str
    fragment: str
    replacement: str
    killed_by: tuple


MUTANTS = [
    # the sign -eps(w_L) of a folded value taken as +1: Gallagher's other
    # extension, still a linear character restricting to the base, so only
    # the tilde sums see it, at every folded rank 3 subset
    Mutant("lift-sign-plus-one", "conjectures.py",
           "flip = W.length(wL) % 2 == 0",
           "flip = False",
           ("tests/test_cli.py::test_rank4_output_matches_pin[verify c B4 --L s1,s3,s4]",
            "tests/test_cli.py::test_rank4_output_matches_pin[verify c F4 --L s1,s2,s4]",
            "tests/test_cli.py::test_rank4_output_matches_pin[verify c A1xH3 --L s1,s2,s3]",
            "tests/test_conjectures.py::test_verify_rank4[a-D4-192]",
            "tests/test_scope.py::test_verify_a_reducible[A1xB3]")),
    # no fold: a W_L factor outside the base centralizer is refused
    Mutant("lift-without-fold", "conjectures.py",
           "u = W.mult(u, wL)",
           "u = u",
           ("tests/test_conjectures.py::test_coset_split_reads_u_times_w_L[B3-L0-1]",
            "tests/test_cli.py::test_rank4_output_matches_pin[verify c D4 --L s1,s2,s3]",
            "tests/test_scope.py::test_every_C_assignment_extends_its_B_assignment[B4]")),
    # phi and psi of the lift are no longer checked against the base
    Mutant("lift-without-restriction-check", "conjectures.py",
           "if phi.restrict(base.centralizer) != base.phi or \\\n"
           "            psi.restrict(base.centralizer) != base.psi:",
           "if False:",
           ("tests/test_typed_checks.py::test_lift_that_misses_its_base_fails_verification",)),
    # phi(c) * eps(d) for c = u * d: a linear character restricting to the
    # base, which moves the tilde sums wherever some d has odd length
    Mutant("lift-times-sign-of-d", "conjectures.py",
           "phi = linear_character(C, values)",
           "phi = linear_character(C, {c: v * (-1) ** W.length(W.normalizer_factors(c, L)[1])"
           " for c, v in values.items()})",
           ("tests/test_conjectures.py::test_verify_a_rank3[A3]",
            "tests/test_cli.py::test_output_matches_recorded_digest[verify a I2(7)]",
            "tests/test_conjectures.py::test_verify_rank4[a-D4-192]")),
    # a class of W_J counted cuspidal when its words miss one letter of J
    Mutant("cuspidal-misses-a-letter", "coxeter.py",
           "len(set(self.words[x])) == len(J)",
           "len(set(self.words[x])) >= len(J) - 1",
           ("tests/test_coxeter.py::test_cuspidal_classes",
            "tests/test_cli.py::test_group_dihedral_nine",
            "tests/test_oracles.py::test_cuspidal_classes_match_fixed_spaces[A3]",
            "tests/test_oracles.py::test_cuspidal_classes_match_fixed_spaces[D4]")),
    # bulky when the first generator of N_J fixes the simple roots of J,
    # whatever the others do
    Mutant("bulky-first-generator-only", "coxeter.py",
           "for n in self.complement_subgroup(J).generators)",
           "for n in self.complement_subgroup(J).generators[:1])",
           ("tests/test_oracles.py::test_is_bulky_matches_commutation[D4]",
            "tests/test_oracles.py::test_is_bulky_matches_commutation[A1xB3]",
            "tests/test_cli.py::test_output_matches_recorded_digest[group A1xB3]",
            "tests/test_cli.py::test_rank4_output_matches_pin[verify a D4]")),
    # the determinant on the root span of J read as sign(u) alone, without
    # the sign of the permutation d makes of the simple roots of J
    Mutant("root-span-without-inversions", "coxeter.py",
           "flips += sum(1 for i, a in enumerate(image) for b in image[i + 1:] if a > b)",
           "flips += 0",
           ("tests/test_oracles.py::test_alpha_and_sigma_match_cyclotomic_determinants[A3]",
            "tests/test_oracles.py::test_twist_is_sign_times_alpha[D4]",
            "tests/test_acceptance.py::test_criterion_08_structural_lemmas",
            "tests/test_cli.py::test_output_matches_recorded_digest[verify a A3]")),
    # the twist read as eps, the determinant on V, not on the root span of L
    Mutant("twist-read-as-sign", "chars.py",
           "lambda c: W.det_on_root_span(c, L)",
           "lambda c: Fraction((-1) ** W.lengths[c])",
           ("tests/test_chars.py::test_twist_character",
            "tests/test_oracles.py::test_twist_is_sign_times_alpha[A1]",
            "tests/test_oracles.py::test_alpha_and_sigma_match_cyclotomic_determinants[I2(5)]",
            "tests/test_cli.py::test_output_matches_recorded_digest[verify a I2(5)]")),
    # a product of component assignments with psi built from the phis
    Mutant("components-psi-from-phi", "conjectures.py",
           "math.prod(a.psi(x)",
           "math.prod(a.phi(x)",
           ("tests/test_scope.py::"
            "test_exhausted_search_on_a_disconnected_top_takes_the_components",
            "tests/test_scope.py::test_every_C_assignment_extends_its_B_assignment"
            "[I2(6)xI2(6)]")),
]
