"""The oracle's per-set memo, its lazy top-r answers and its evaluator
states: a long-lived handle must answer every question exactly as a fresh
handle does, charge the same queries, and evaluate fewer answers than it
is asked for."""

import ast
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submax.baselines as bl
import submax.fastsolve as fs
from submax.config import SolverConfig, attempts_count, iteration_count
from submax.objectives import (
    COVERAGE,
    CUT,
    FACILITY,
    KINDS,
    Instance,
    gen_synthetic,
    make_evaluator,
    make_handle,
)
from submax import oracle
from submax.oracle import OracleHandle, Solution, make_ground_set


@st.composite
def instances(draw, integers=False):
    """A small instance of any kind over a random float matrix, whose sums
    round in the last bit, or with `integers` over entries in {0, 1, 2},
    whose marginals tie often."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.integers(0, 3, (n, n)).astype(float) if integers else rng.random((n, n)) * 10.0
    mat = np.triu(mat) + np.triu(mat, 1).T
    if kind == CUT:
        np.fill_diagonal(mat, 0.0)
    return Instance(kind=kind, data=mat, lam=draw(st.floats(0.0, 1.0)))


@st.composite
def walks(draw):
    """An instance and a list of steps over a few live Solutions. Ids
    range over the whole ground set, so dummies, held members and repeats
    occur.

    A state is a function of the ordered list of real ids it was given,
    so a handle that reached a set through any history answers bit for bit
    as a fresh one, and the memo is the only thing that can tell the two
    handles apart.
    """
    inst = draw(instances())
    n = inst.n_real
    k = draw(st.integers(1, n))
    ids = st.integers(0, n + 2 * k - 1)
    maybe = st.none() | ids
    which = st.integers(0, 3)  # which live Solution a query asks about
    steps = draw(st.lists(
        st.one_of(
            st.tuples(st.just("add"), ids),
            st.tuples(st.just("remove"), ids),
            st.tuples(st.just("copy")),
            st.tuples(st.just("fresh"), st.lists(ids, max_size=k, unique=True)),
            st.tuples(st.just("marginal_many"), which, st.lists(ids, max_size=3 * n), maybe),
            st.tuples(st.just("marginal"), which, ids, maybe),
            st.tuples(st.just("removal_losses"), which),
            st.tuples(st.just("value"), which, maybe, maybe),
        ),
        max_size=40,
    ))
    return inst, k, steps


def query(step, sol):
    """The oracle call of a query step, as a function of a handle."""
    op, _, *args = step
    if op == "marginal_many":
        us, drop = args
        return lambda h: h.marginal_many(us, sol, drop)
    if op == "marginal":
        u, drop = args
        return lambda h: h.marginal(u, sol, drop)
    if op == "removal_losses":
        return lambda h: h.removal_losses(sol)
    drop, add = args
    return lambda h: h.value(sol, drop, add)


def check_zero_contract(step, sol, got, n_real):
    """Dummies and held members other than a real drop answer exactly 0."""
    op, _, *args = step
    if op not in ("marginal_many", "marginal"):
        return
    us, drop = (args[0], args[1]) if op == "marginal_many" else ([args[0]], args[1])
    real_drop = drop if drop is not None and drop < n_real and drop in sol else None
    for u, g in zip(us, np.atleast_1d(got)):
        if u >= n_real or (u in sol and u != real_drop):
            assert g == 0.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(walks())
def test_long_lived_handle_matches_fresh_handle(walk):
    inst, k, steps = walk
    n = inst.n_real
    h = make_handle(inst, k)
    sols = [Solution(k)]
    for step in steps:
        op = step[0]
        sol = sols[-1]
        if op == "add":
            if step[1] not in sol and len(sol) < k:
                sol.add(step[1])
            continue
        if op == "remove":
            if step[1] in sol:
                sols[-1] = Solution(k, [w for w in sol.elements if w != step[1]])
            continue
        if op == "copy":
            sols.append(Solution(k, sol.elements))
            continue
        if op == "fresh":
            sols.append(Solution(k, step[1]))
            continue
        sol = sols[step[1] % len(sols)]
        call = query(step, sol)
        fresh = make_handle(inst, k)
        want = call(fresh)
        before = h.ledger.queries
        got = call(h)
        assert np.array_equal(got, want)
        assert h.ledger.queries - before == fresh.ledger.queries
        check_zero_contract(step, sol, got, n)
        if op == "removal_losses":
            check_losses_are_marginals(inst, k, sol, want)
            got[:] = -1.0  # the caller's copy; the next answer must not see it
            assert np.array_equal(h.removal_losses(sol), want)
    for sol in sols:  # the walk's last sets, asked or not
        check_losses_are_marginals(inst, k, sol, make_handle(inst, k).removal_losses(sol))


def check_losses_are_marginals(inst, k, sol, losses):
    """A removal loss is the marginal of v against S - v, bit for bit. A
    handle of its own asks, so the walk's two ledgers stay comparable."""
    other = make_handle(inst, k)
    for v, loss in zip(sol.elements, losses):
        assert loss == other.marginal(v, sol, drop=v)


@pytest.mark.parametrize("kind", KINDS)
def test_handles_share_the_instance_fixed_arrays(kind):
    inst = gen_synthetic(kind, 30, np.random.default_rng(7), density=0.5)
    one, two = make_handle(inst, 3).objective, make_handle(inst, 5).objective
    assert one.a is two.a is inst.a
    assert one.inst is two.inst is inst
    # The expressions each state used to evaluate per handle, with the
    # diagonal term folded into a. Cut adds each row's stored weights one by
    # one, in column order.
    c = {COVERAGE: inst.lam, CUT: 1.0, FACILITY: 1.0 / inst.n_real}[kind]
    data = inst.data.toarray() if kind == CUT else inst.data
    a = {COVERAGE: data.sum(axis=0), CUT: np.zeros(inst.n_real),
         FACILITY: np.zeros(inst.n_real)}[kind]
    if kind == CUT:
        w = inst.data
        for u in range(inst.n_real):
            for x in w.weights[w.indptr[u]:w.indptr[u + 1]]:
                a[u] += x
    assert inst.c == c
    assert inst.a.tobytes() == (a - c * np.diag(data)).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_sets_longer_than_k_keep_k_plus_one_checkpoints(kind):
    inst = gen_synthetic(kind, 20, np.random.default_rng(8), density=0.5)
    k = 3
    h = make_handle(inst, k)
    order = [int(u) for u in np.random.default_rng(9).permutation(20)]
    for size in (12, 6, 15, 2, 9):  # rewinds before and past the last checkpoint
        sol = Solution(20, order[:size])
        h.value(sol)
        assert same_state(h.objective, added(inst, order[:size]))
        assert all(len(rows) <= k + 1 for rows in h.objective._marks)


@pytest.mark.parametrize("kind", KINDS)
def test_local_search_evaluates_fewer_answers_than_it_queries(kind):
    inst = gen_synthetic(kind, 200, np.random.default_rng(2), density=0.3)
    cfg = SolverConfig(k=8, eps=0.5, seed=3)
    assert attempts_count(cfg.eps) == 1
    h = make_handle(inst, 8)
    fs.fast_local_search(h, cfg)
    init = make_handle(inst, 8)
    fs.init_solution(init, cfg)
    budget = fs.attempt_query_budget(h.ground.total, 8, iteration_count(8, 0.5))
    # The logical count is the one test_attempt_queries_match_budget_exactly
    # asserts: the initial solution, one value of it, then the one attempt.
    assert h.ledger.queries == init.ledger.queries + 1 + budget
    assert 0 < h.ledger.evaluated < h.ledger.queries


def test_history_does_not_change_an_answer():
    # Syncing {0, 3} and then the empty set used to leave last-bit residue
    # in the running sums: 42.58668396962718 against a fresh handle's
    # 42.586683969627174.
    inst = gen_synthetic(COVERAGE, 9, np.random.default_rng(160))
    h = make_handle(inst, 2)
    h.marginal(7, Solution(2, [0, 3]))
    got = h.marginal(7, Solution(2))
    assert got == make_handle(inst, 2).marginal(7, Solution(2)) == 42.586683969627174


def same_state(a, b) -> bool:
    """Equal ids, value and live running sums, bit for bit. Checkpoint rows
    past the live position are scratch space and are not compared."""
    if a.ids != b.ids or a.value() != b.value():
        return False
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in a.SUMS)


def added(inst, ids):
    """A fresh state fed `add` over `ids` in order."""
    state = make_evaluator(inst)
    for u in ids:
        state.add(u)
    return state


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_reset_and_remove_are_replays_of_add(data):
    inst = data.draw(instances())
    n = inst.n_real
    ids = st.lists(st.integers(0, n - 1), unique=True, max_size=n)
    state = make_evaluator(inst)
    for before in data.draw(st.lists(ids, max_size=3)):  # some earlier history
        state.reset(before)
    target = data.draw(ids)
    state.reset(target)
    assert same_state(state, added(inst, target))
    if target:
        v = data.draw(st.sampled_from(target))
        state.remove(v)
        rest = [u for u in target if u != v]
        assert same_state(state, added(inst, rest))
        fresh = make_evaluator(inst)
        fresh.reset(rest)
        assert same_state(state, fresh)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_rewind_then_append_is_a_fresh_replay(data):
    # A depth below the list length sends rewinds and adds past the last
    # checkpoint, through the replay and the spill rows.
    inst = data.draw(instances())
    n = inst.n_real
    state = make_evaluator(inst, data.draw(st.integers(0, n)))
    for _ in range(data.draw(st.integers(1, 4))):
        p = data.draw(st.integers(0, len(state.ids)))
        free = [u for u in range(n) if u not in state.ids[:p]]
        tail = data.draw(st.lists(st.sampled_from(free), unique=True) if free else st.just([]))
        state.rewind(p)
        for u in tail:
            state.add(u)
        assert same_state(state, added(inst, state.ids))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_reset_cuts_only_where_the_lists_part(data):
    # The default depth keeps a checkpoint per position, so a cut adds
    # nothing and every add is one of the tail's.
    inst = data.draw(instances())
    ids = st.lists(st.integers(0, inst.n_real - 1), unique=True)
    state = make_evaluator(inst)
    adds = []
    add = state.add
    state.add = lambda u: (adds.append(u), add(u))[1]
    for target in data.draw(st.lists(ids, min_size=1, max_size=4)):
        before = list(state.ids)
        p = next((i for i, (a, b) in enumerate(zip(before, target)) if a != b),
                 min(len(before), len(target)))
        adds.clear()
        assert state.reset(target) == (p < len(before))
        assert adds == target[p:]
        assert same_state(state, added(inst, target))


class FiveMembers:
    """An evaluator with only the members the handle's protocol names,
    each passed through to a state."""

    def __init__(self, state):
        self._state = state

    def reset(self, ids):
        return self._state.reset(ids)

    def add(self, u):
        self._state.add(u)

    def value(self):
        return self._state.value()

    def gain_many(self, us, drop=None):
        return self._state.gain_many(us, drop)

    def loss_many(self, vs):
        return self._state.loss_many(vs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_the_five_protocol_members_are_all_the_handle_needs(data):
    inst = data.draw(instances())
    n = inst.n_real
    k = data.draw(st.integers(1, n))
    ground = make_ground_set(n, k)
    ids = st.integers(0, ground.total - 1)
    lean = OracleHandle(FiveMembers(make_evaluator(inst, k)), ground)
    full = make_handle(inst, k)
    sol = Solution(k)
    for _ in range(data.draw(st.integers(1, 8))):
        grow = data.draw(st.integers(0, 2))
        if grow and len(sol) < k:
            u = data.draw(ids)
            if u not in sol:
                sol.add(u)
        elif not grow:
            sol = Solution(k, data.draw(st.lists(ids, max_size=k, unique=True)))
        us = data.draw(st.lists(ids, min_size=1, max_size=ground.total))
        drop, add, r = data.draw(st.none() | ids), data.draw(st.none() | ids), data.draw(ids)
        got, want = ((h.value(sol), h.value(sol, drop, add), h.marginal(us[0], sol, drop),
                      h.marginal_many(us, sol, drop), *h.top_marginals(us, sol, 1 + r),
                      h.removal_losses(sol)) for h in (lean, full))
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert (lean.ledger.queries, lean.ledger.evaluated) == (
            full.ledger.queries, full.ledger.evaluated)


def evaluator_internals(source: str) -> list[str]:
    """Every `.ids` or `.rewind` attribute in the source: the handle syncs
    its evaluator through `reset` and `add` alone, and keeps no copy of
    the evaluator's id list or of the rule that keeps its common prefix."""
    return [f"{node.attr} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ("ids", "rewind")]


def test_the_handle_leaves_the_evaluator_its_id_list():
    with open(oracle.__file__, encoding="utf-8") as fh:
        assert evaluator_internals(fh.read()) == []


def test_the_walk_sees_the_evaluator_internals():
    source = "p = len(state.ids)\nself.objective.rewind(p)\nsol.elements\n"
    assert evaluator_internals(source) == ["ids (line 1)", "rewind (line 2)"]


class BoundChecked:
    """Evaluator wrapper asserting that every plain marginal it computes is
    at most the handle's bound for that id, which the handle stores already
    widened: under submodularity a marginal can only fall while the set
    grows."""

    def __init__(self, state):
        self.state = state
        self.handle = None

    def reset(self, ids):
        return self.state.reset(ids)

    def add(self, u):
        self.state.add(u)

    def value(self):
        return self.state.value()

    def loss_many(self, vs):
        return self.state.loss_many(vs)

    def gain_many(self, us, drop=None):
        vals = self.state.gain_many(us, drop)
        if drop is None:
            assert (vals <= self.handle._bound[us]).all()
        return vals


def checked_handle(inst, k):
    h = OracleHandle(BoundChecked(make_evaluator(inst)), make_ground_set(inst.n_real, k))
    h.objective.handle = h
    return h


@st.composite
def greedy_walks(draw):
    """An instance and steps that mostly grow one set. A `remove` or a
    `restart` can make the next query rewind the evaluator, which drops the
    bounds. Candidate lists range over the whole ground set, so dummies,
    held members and repeated ids occur."""
    inst = draw(instances(integers=draw(st.booleans())))
    n = inst.n_real
    k = draw(st.integers(1, n))
    ids = st.integers(0, n + 2 * k - 1)
    candidates = st.lists(ids, min_size=1, max_size=n + 2 * k)
    steps = draw(st.lists(
        st.one_of(
            st.tuples(st.just("add"), ids),
            st.tuples(st.just("add"), ids),
            st.tuples(st.just("remove"), ids),
            st.tuples(st.just("restart"), st.lists(ids, max_size=k, unique=True)),
            st.tuples(st.just("top"), candidates, st.floats(0.0, 1.0)),
            st.tuples(st.just("top"), candidates, st.floats(0.0, 1.0)),
            st.tuples(st.just("marginal_many"), candidates),
        ),
        max_size=30,
    ))
    return inst, k, steps


def two_pass_evaluated(h, inst, k, us, sol, r) -> int:
    """How many answers the two-pass rule of `top_marginals` computes, by
    a reference that gathers every gain from the memo again after each
    pass and takes the r-th largest known gain by a sort. `h` is synced to `sol`
    first and then only read; the answers come from a fresh handle."""
    h.marginal_many([], sol)
    memo = h._memo(sol, None).copy()
    us = np.asarray(us, dtype=np.int64)
    exact = make_handle(inst, k).marginal_many(us, sol)
    m, r = len(us), min(r, len(us))
    evaluated = 0

    def evaluate(pos):
        nonlocal evaluated
        memo[us[pos]] = exact[pos]
        evaluated += len(pos)
        return bool((exact[pos] > keys[pos]).any())

    gains = memo[us]
    stale = np.isnan(gains)
    if stale.any():
        keys = np.where(stale, h._bound[us], gains)
        head = np.argpartition(keys, m - 2 * r)[m - 2 * r:] if 2 * r < m else np.arange(m)
        wrong = evaluate(head[stale[head]])
        gains = memo[us]
        if not wrong:
            f_r = np.sort(gains[~np.isnan(gains)])[-r]
            wrong = evaluate(np.flatnonzero(np.isnan(gains) & (keys >= f_r)))
        if wrong:
            evaluate(np.flatnonzero(np.isnan(memo[us])))
    return evaluated


@settings(max_examples=300, deadline=None, derandomize=True)
@given(greedy_walks())
def test_top_marginals_match_the_eager_sort(walk):
    inst, k, steps = walk
    h = checked_handle(inst, k)
    sol = Solution(k)
    for op, *args in steps:
        if op == "add":
            if args[0] not in sol and len(sol) < k:
                sol.add(args[0])
        elif op == "remove":
            if args[0] in sol:
                sol = Solution(k, [w for w in sol.elements if w != args[0]])
        elif op == "restart":
            sol = Solution(k, args[0])
        elif op == "marginal_many":
            h.marginal_many(args[0], sol)
        else:
            us, frac = args
            fresh = make_handle(inst, k)
            want_gains = fresh.marginal_many(us, sol)
            want = np.lexsort((us, -want_gains))
            # Every r against the same bounds, each on a copy of the handle.
            for r in range(1, len(us) + 1):
                want_evaluated = two_pass_evaluated(copy.deepcopy(h), inst, k, us, sol, r)
                other = copy.deepcopy(h)
                top, gains = other.top_marginals(us, sol, r)
                assert np.array_equal(top, want[:r])
                assert np.array_equal(gains, want_gains[want[:r]])
                assert other.ledger.queries - h.ledger.queries == fresh.ledger.queries
                assert other.ledger.evaluated - h.ledger.evaluated == want_evaluated
            r = 1 + int(frac * (len(us) - 1))
            top, gains = h.top_marginals(us, sol, r)
            assert np.array_equal(top, want[:r])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(greedy_walks())
def test_an_append_forgets_every_answer_the_old_set_wrote(walk):
    # An append keeps the memo and forgets only the answers written for the
    # old set; one left behind would answer for a set that is gone.
    inst, k, steps = walk
    h = make_handle(inst, k)
    sol = Solution(k)
    everything = np.arange(h.ground.total)
    for op, *args in steps:
        if op == "add":
            if args[0] not in sol and len(sol) < k:
                sol.add(args[0])
                want = make_handle(inst, k).marginal_many(everything, sol)
                assert np.array_equal(copy.deepcopy(h).marginal_many(everything, sol), want)
        elif op == "remove":
            if args[0] in sol:
                sol = Solution(k, [w for w in sol.elements if w != args[0]])
        elif op == "restart":
            sol = Solution(k, args[0])
        elif op == "marginal_many":
            h.marginal_many(args[0], sol)
        else:
            us, frac = args
            h.top_marginals(us, sol, 1 + int(frac * (len(us) - 1)))


def test_an_append_forgets_the_ids_asked_even_if_the_caller_reuses_its_array():
    inst = gen_synthetic(CUT, 12, np.random.default_rng(4), density=0.8)
    h = make_handle(inst, 3)
    sol = Solution(3, [0])
    us = np.array([2, 3, 5])
    h.marginal_many(us, sol)  # every id a miss: `us` itself is evaluated
    us[:] = [7, 8, 9]
    sol.add(1)
    everything = np.arange(h.ground.total)
    want = make_handle(inst, 3).marginal_many(everything, sol)
    assert np.array_equal(h.marginal_many(everything, sol), want)


def test_a_tied_head_falls_back_to_the_two_pass_rule():
    # Graph cut with one edge of weight 2, between 0 and 1: gains 2, 2, 0, ...
    # on the empty set. After 0 is added, the keys are 1's widened bound and
    # exact zeros (the held 0, the dummies, the stale ids whose bound 0
    # widens to 0). For r = 1 the head holds 1 (gain -2) and one zero key,
    # so h_1 = 0 equals the head's smallest key, and every stale zero outside
    # the head must still be evaluated: it ties at 0 and may have a lower id.
    n, k = 8, 2
    data = np.zeros((n, n))
    data[0, 1] = data[1, 0] = 2.0
    inst = Instance(kind=CUT, data=data)
    h = make_handle(inst, k)
    us = np.arange(h.ground.total)[::-1].copy()
    sol = Solution(k)
    h.top_marginals(us, sol, 1)
    sol.add(0)
    fresh = make_handle(inst, k)
    want_gains = fresh.marginal_many(us, sol)
    want = np.lexsort((us, -want_gains))
    for r in range(1, len(us) + 1):
        other = copy.deepcopy(h)
        top, gains = other.top_marginals(us, sol, r)
        assert np.array_equal(top, want[:r])
        assert np.array_equal(gains, want_gains[want[:r]])
        evaluated = other.ledger.evaluated - h.ledger.evaluated
        assert evaluated == two_pass_evaluated(copy.deepcopy(h), inst, k, us, sol, r)
        if r == 1:  # all n - 1 stale ids, not just the two in the head
            assert evaluated == n - 1


@pytest.mark.parametrize("kind", [CUT, FACILITY])
def test_greedy_solvers_evaluate_a_fraction_of_their_queries(kind):
    # An eager greedy stage evaluates every candidate it samples except
    # dummies and held members: 92% of its queries on these instances. The
    # lazy stage evaluates only the candidates whose bound can still reach
    # the pick: 17-36% here. Bound: at most half.
    inst = gen_synthetic(kind, 200, np.random.default_rng(2), density=0.3)
    k = 8
    cfg = SolverConfig(k=k, eps=0.5, seed=3)
    solvers = {
        "random_greedy": lambda h: bl.random_greedy(h, cfg),
        "sample_greedy": lambda h: bl.sample_greedy(h, cfg),
        "guided_stochastic_greedy":
            lambda h: fs.guided_stochastic_greedy(h, Solution(k, range(k)), cfg),
        "init_solution": lambda h: fs.init_solution(h, cfg),
    }
    for name, run in solvers.items():
        h = make_handle(inst, k)
        run(h)
        assert 0 < h.ledger.evaluated <= h.ledger.queries / 2, name
