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
_CAPPED = "tests/test_oracles.py::test_capped_margins_and_distances_match_conjugation"
_PRIMES = (2, 3, 5, 7, 101)
_BALL = "tests/test_oracles.py::test_ball_in_canonical_order_matches_link_generator"
_SWEEP = "tests/test_oracles.py::test_closed_form_closure_matches_rounds"
_RULE = "tests/test_global_classfield.py::test_local_rule_matches_the_inline_rule"
_PAIRS = (
    "tests/test_local_orders.py"
    "::test_order_closure_certifies_every_pair_of_generators"
)

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
        "k = int_valuation(x, p, k) if x % p == 0 else 0",
        "k = int_valuation(x, p, k) if x % p else 0",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "mu reads 0 for a numerator of m00 - m11 divisible by p",
        "qlat/branches.py",
        "(int_valuation(y, p, v_ga + va) if y % p == 0 else 0)",
        "(int_valuation(y, p, v_ga + va) if y % p else 0)",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "mu takes ga for a unit",
        "qlat/branches.py",
        "int_valuation(y, p, v_ga + va)",
        "int_valuation(y, p, va)",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "mu reads v_p(ga) at every vertex",
        "qlat/branches.py",
        "int_valuation(y, p, v_ga + va)",
        "int_valuation(y, p, int_valuation(ga, p) + va)",
        [f"{_ONCE}[3]", f"{_ONCE}[101]"],
    ),
    Mutant(
        "mu caps the m00 - m11 valuation one short",
        "qlat/branches.py",
        "int_valuation(y, p, v_ga + va)",
        "int_valuation(y, p, v_ga + va - 1)",
        [f"{_CAPPED}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "meet caps its valuation with max",
        "qlat/bt_tree.py",
        "int_valuation(num, p, min(v.a + w.b, w.a + v.b))",
        "int_valuation(num, p, max(v.a + w.b, w.a + v.b))",
        [f"{_CAPPED}[{p}]" for p in _PRIMES],
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
        "k = int_valuation(num, p, a + e) if num % p == 0 else 0",
        "k = int_valuation(num, p, a + e) if num % p else 0",
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
        "int_valuation(num, p, a + e)",
        "int_valuation(num, p, a + int_valuation(y, p))",
        [f"{_ONCE}[3]", f"{_ONCE}[101]"],
    ),
    Mutant(
        "horoball slack caps its valuation one short",
        "qlat/bt_tree.py",
        "int_valuation(num, p, a + e)",
        "int_valuation(num, p, a + e - 1)",
        [f"{_BOUND}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "capped valuation hands off with the cap one short",
        "qlat/exact_padic.py",
        "n % p ** (cap - v) == 0",
        "n % p ** (cap - v - 1) == 0",
        [
            f"tests/test_exact_padic.py::test_odd_valuations_divide_by_squared_powers[{p}]"
            for p in (3, 5, 7, 101)
        ],
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
    Mutant(
        "intersection reads the plateau's sides from a stale scan",
        "qlat/branches.py",
        "    back = None\n    while m < ceiling:\n        sides = []\n",
        "    back, sides = None, []\n    while m < ceiling:\n",
        [
            f"tests/test_oracles.py::test_plateau_sides_come_from_the_summit_scan[{p}]"
            for p in _PRIMES
        ],
    ),
    Mutant(
        "level neighbors read v_p(den) at every step",
        "qlat/branches.py",
        "        k = v_den + b + m\n",
        "        k = int_valuation(den, p) + b + m\n",
        ["tests/test_oracles.py::test_classify_single_reads_v_den_once_per_walk"],
    ),
    # -- order closure ---------------------------------------------------------
    Mutant(
        "closure drops the pair traces",
        "qlat/local_orders.py",
        "        for i, (e, f, g, h) in enumerate(mats[:j])\n",
        "        for i, (e, f, g, h) in enumerate(mats[:0])\n",
        [_PAIRS, f"{_SWEEP}[2]", f"{_SWEEP}[101]"],
    ),
    Mutant(
        "closure checks only the adjacent pair",
        "qlat/local_orders.py",
        "        for i, (e, f, g, h) in enumerate(mats[:j])\n",
        "        for i, (e, f, g, h) in enumerate(mats[max(j - 1, 0) : j], j - 1)\n",
        [_PAIRS, "tests/test_cli.py::test_three_generators_are_certified_pair_by_pair"],
    ),
    Mutant(
        "closure names a pair j*i",
        "qlat/local_orders.py",
        '(f"{i}*{j}", "trace"',
        '(f"{j}*{i}", "trace"',
        [_PAIRS, f"{_SWEEP}[2]", f"{_SWEEP}[101]"],
    ),
    Mutant(
        "closure appends a_j in place of the span times a_j",
        "qlat/local_orders.py",
        "            for a, b, c, d in rows\n        ]",
        "            for a, b, c, d in rows[:1]\n        ]",
        [
            "tests/test_local_orders.py"
            "::test_order_closure_contains_one_and_generators_and_is_closed",
            *(f"{_SWEEP}[{p}]" for p in _PRIMES),
        ],
    ),
    Mutant(
        "closure puts four rows in Hermite form",
        "qlat/local_orders.py",
        "        if len(rows) > 4:\n",
        "        if len(rows) >= 4:\n",
        [
            "tests/test_oracles.py"
            "::test_order_closure_takes_one_hermite_form_up_to_three_generators"
        ],
    ),
    # -- balls read off the distance formula ----------------------------------
    Mutant(
        "ball floors the least meet level",
        "qlat/bt_tree.py",
        "m = -((radius - a + b - a0 + b0) // 2)",
        "m = (a - b + a0 - b0 - radius) // 2",
        [f"{_BALL}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "ball drops the unit filter on a whole level",
        "qlat/bt_tree.py",
        "cs = [c for c in range(1, q) if c % p]",
        "cs = range(q)",
        [f"{_BALL}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "ball drops the unit filter on a residue class",
        "qlat/bt_tree.py",
        "if r or a and b and y % p == 0:",
        "if r:",
        [f"{_BALL}[{p}]" for p in _PRIMES],
    ),
    Mutant(
        "ball stops its levels one short",
        "qlat/bt_tree.py",
        "range(max(0, a0 - radius), a0 + radius + 1)",
        "range(max(0, a0 - radius), a0 + radius)",
        [f"{_BALL}[{p}]" for p in _PRIMES],
    ),
    # -- rationals read as integer pairs ---------------------------------------
    Mutant(
        "rational parse drops the sign of a negative denominator",
        "qlat/cli.py",
        "g = gcd(n, d) if d > 0 else -gcd(n, d)",
        "g = gcd(n, d)",
        ["tests/test_oracles.py::test_rationals_parse_to_integer_pairs_in_lowest_terms"],
    ),
    Mutant(
        "field element scaled by den in place of den^2",
        "qlat/cli.py",
        "    return (x * den, y * den)\n",
        "    return (x, y)\n",
        [
            "tests/test_oracles.py::test_field_elements_parse_to_the_same_values",
            "tests/test_cli.py::test_global_rep_field_rational_delta[two-thirds]",
            "tests/test_cli.py::test_global_rep_field_rational_delta[two-thirds-xy]",
        ],
    ),
    Mutant(
        "rep-field writes the ratio 1/1 for degree 1",
        "qlat/cli.py",
        '"ratio": "1" if rep.degree == 1 else f"1/{rep.degree}",',
        '"ratio": f"1/{rep.degree}",',
        [
            "tests/test_cli.py::test_global_rep_field_conductor",
            "tests/test_cli.py::test_global_rep_field_rational_delta[two-thirds]",
        ],
    ),
    # -- one spinor rule for both layers ---------------------------------------
    Mutant(
        "the rule finds no embedding at delta = d",
        "qlat/spinor_local.py",
        "    if delta < d:\n",
        "    if delta <= d:\n",
        [
            "tests/test_spinor_local.py::test_decision_table_hand_cases",
            "tests/test_spinor_local.py::test_rule_reads_a_diameter_and_a_level",
            *(f"{_RULE}[{m}]" for m in ("10", "-5")),
        ],
    ),
    Mutant(
        "a place split in L reads diameter 0",
        "qlat/global_classfield.py",
        "inert, diameter = False, inf  # split in L",
        "inert, diameter = False, 0  # split in L",
        [f"{_RULE}[{m}]" for m in ("10", "-5")],
    ),
    Mutant(
        "a place ramified in L counts as unbalanced",
        "qlat/global_classfield.py",
        "        if inert and image is spinor_local.SpinorImage.FULL:\n",
        "        if diameter < inf and image is spinor_local.SpinorImage.FULL:\n",
        [f"{_RULE}[{m}]" for m in ("10", "-5")],
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
