"""Registered mutants: small faults in `src/qlat` that named tests must kill.

Each mutant names the file under `src/`, the exact text to replace (it
must occur there once), its replacement, and the ids of the tests that
must each fail with the fault in place.  `python3 tests/run_mutants.py`
applies them one at a time to a copy of `src/` and runs those tests.  A
change that adds a fast path registers here the faults its new tests
kill; a change that moves the code under a mutant updates its text.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "name file old new tests")

_BOUND = "tests/test_oracles.py::test_bound_margins_match_reference"
_ONCE = "tests/test_oracles.py::test_bound_margins_read_fixed_valuations_once"
_PRIMES = (2, 3, 5, 7, 101)

MUTANTS = [
    # -- margin kernels --------------------------------------------------------
    Mutant(
        "mu drops the valuation of den",
        "qlat/branches.py",
        "    shift -= int_valuation(den, p)\n",
        "",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "mu reads 0 for a numerator of m01 divisible by p",
        "qlat/branches.py",
        "(int_valuation(x, p) if x % p == 0 else 0) - va - vb",
        "(int_valuation(x, p) if x % p else 0) - va - vb",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "mu reads 0 for a numerator of m00 - m11 divisible by p",
        "qlat/branches.py",
        "(int_valuation(y, p) if y % p == 0 else 0) - vb",
        "(int_valuation(y, p) if y % p else 0) - vb",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "mu takes ga for a unit",
        "qlat/branches.py",
        "            v_ga + va - vb,\n",
        "            va - vb,\n",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "mu reads v_p(ga) at every vertex",
        "qlat/branches.py",
        "            v_ga + va - vb,\n",
        "            int_valuation(ga, p) + va - vb,\n",
        [f"{_ONCE}[3]", f"{_ONCE}[101]"],
    ),
    Mutant(
        "apartment margin adds the axis margin",
        "qlat/branches.py",
        "_bound_mu(self.witness, self.p, self.t - self.axis_margin)",
        "_bound_mu(self.witness, self.p, self.t + self.axis_margin)",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "thick path margin adds the level",
        "qlat/branches.py",
        "t - (distance(v, x) + distance(v, y) - level) // 2",
        "t - (distance(v, x) + distance(v, y) + level) // 2",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "horoball slack reads 0 for a numerator divisible by p",
        "qlat/bt_tree.py",
        "k = int_valuation(num, p) if num % p == 0 else 0",
        "k = int_valuation(num, p) if num % p else 0",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "horoball slack takes the end's y for a unit",
        "qlat/bt_tree.py",
        "    e = int_valuation(y, p) if y else 0\n",
        "    e = 0\n",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "horoball slack reads v_p(end.y) at every vertex",
        "qlat/bt_tree.py",
        "min(k, a + e)",
        "min(k, a + int_valuation(y, p))",
        [f"{_ONCE}[3]", f"{_ONCE}[101]"],
    ),
    Mutant(
        "horoball slack loses the sign of its base level",
        "qlat/bt_tree.py",
        "    top = -slack(base)",
        "    top = slack(base)",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "ray distance adds the slack",
        "qlat/bt_tree.py",
        "(distance(v, base) - slack(v)) // 2",
        "(distance(v, base) + slack(v)) // 2",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    # -- earlier fast paths ----------------------------------------------------
    Mutant(
        "squarefree trial division stops below the cube root",
        "qlat/exact_padic.py",
        "    while d * d * d <= n:\n",
        "    while d * d * d < n:\n",
        [
            "tests/test_oracles.py"
            "::test_cube_root_squarefree_test_matches_the_factorizer"
        ],
    ),
    Mutant(
        "strong-pseudoprime test drops base 41",
        "qlat/exact_padic.py",
        "SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
        "SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
        ["tests/test_oracles.py::test_strong_pseudoprime_test_past_the_cap"],
    ),
    Mutant(
        "branch enumeration admits by sigma > 0",
        "qlat/branches.py",
        "                if sigma(n) >= 0:\n",
        "                if sigma(n) > 0:\n",
        [f"tests/test_oracles.py::test_climbed_enumeration_matches_radius_loop[{p}]"
         for p in _PRIMES],
    ),
    Mutant(
        "a neighbor scan is charged 1 vertex",
        "qlat/branches.py",
        "        spent += v.p + 1\n",
        "        spent += 1\n",
        [
            "tests/test_cli.py::test_local_classify_pair_at_large_prime_exceeds_budget",
            "tests/test_cli.py::test_local_classify_walks_the_summit_plateau_once",
        ],
    ),
]
