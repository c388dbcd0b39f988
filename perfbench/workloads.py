"""Seeded instance generators for the ordering benchmark.

Every instance is a Boolean function built as a small gate circuit.  The
same circuit yields two things that never pass through the program under
test:

* the input text a user would hand to ``ovo order`` (a formula, a PLA or
  a BLIF netlist), and
* the function's truth table, evaluated here bit-parallel over Python
  integers (bit ``a`` of the integer is f at assignment ``a``; bit ``i``
  of ``a`` is the value of text variable ``x{i+1}``).

The truth table is what the independent references (branch-and-bound or
a closed form) and the order re-check use, so a parser defect in the
program shows up as a wrong size instead of agreeing with itself.

A seed fixes everything: which text variable each circuit input is
called (a random relabelling, which keeps every optimum), the random
functions, and the order of the stream.  Generators use only
``random.Random(seed)``; the same seed gives byte-identical texts.
"""

import random

AND, OR, XOR, NOT = "and", "or", "xor", "not"


class Circuit:
    """A gate DAG over ``n`` inputs; node ids below ``n`` are the inputs."""

    def __init__(self, n):
        self.n = n
        self.gates = []  # (op, operand ids); node id = n + index

    def gate(self, op, *args):
        self.gates.append((op, args))
        return self.n + len(self.gates) - 1

    def and_(self, a, b):
        return self.gate(AND, a, b)

    def or_(self, a, b):
        return self.gate(OR, a, b)

    def xor(self, a, b):
        return self.gate(XOR, a, b)

    def not_(self, a):
        return self.gate(NOT, a)

    def fold(self, op, ids):
        acc = ids[0]
        for x in ids[1:]:
            acc = self.gate(op, acc, x)
        return acc

    def half_adder(self, a, b):
        return self.xor(a, b), self.and_(a, b)

    def full_adder(self, a, b, c):
        s1 = self.xor(a, b)
        return self.xor(s1, c), self.or_(self.and_(a, b), self.and_(s1, c))


# ---------------------------------------------------------------------------
# Truth tables (bit-parallel over Python ints)


def var_mask(n, t):
    """Truth table of text variable t (0-based) over n variables."""
    half = 1 << t
    unit = ((1 << half) - 1) << half
    period = half << 1
    reps = (1 << (1 << n)) - 1
    return unit * (reps // ((1 << period) - 1))


def truth_tables(circ, outputs, label):
    """Tables of `outputs`; circuit input i is text variable label[i]."""
    n = circ.n
    full = (1 << (1 << n)) - 1
    val = [var_mask(n, label[i]) for i in range(n)]
    for op, args in circ.gates:
        if op == AND:
            v = val[args[0]] & val[args[1]]
        elif op == OR:
            v = val[args[0]] | val[args[1]]
        elif op == XOR:
            v = val[args[0]] ^ val[args[1]]
        else:
            v = full ^ val[args[0]]
        val.append(v)
    return [val[o] for o in outputs]


def table_bits(table, n):
    """The table as the '0'/'1' string of TruthTable::from_bits, cell 0 first."""
    return format(table, "0%db" % (1 << n))[::-1]


# ---------------------------------------------------------------------------
# Text renderings


def to_formula(circ, out, label, rng=None):
    """Expands the DAG below `out` into a formula (shared nodes duplicate).
    With `rng`, the operands of each gate are written in random order."""
    memo = {}

    def rec(x):
        if x < circ.n:
            return "x%d" % (label[x] + 1)
        if x in memo:
            return memo[x]
        op, args = circ.gates[x - circ.n]
        if op == NOT:
            s = "!" + rec(args[0])
        else:
            sym = {AND: "&", OR: "|", XOR: "^"}[op]
            a, b = rec(args[0]), rec(args[1])
            if rng is not None and rng.random() < 0.5:
                a, b = b, a
            s = "(%s %s %s)" % (a, sym, b)
        memo[x] = s
        return s

    return rec(out)


def to_blif(circ, outputs, label, model):
    """One .names cover per gate; inputs listed in text-variable order."""
    name = {}
    for i in range(circ.n):
        name[i] = "x%d" % (label[i] + 1)
    lines = [".model " + model]
    lines.append(".inputs " + " ".join("x%d" % (t + 1) for t in range(circ.n)))
    lines.append(".outputs " + " ".join("f%d" % k for k in range(len(outputs))))
    rows = {AND: ["11 1"], OR: ["1- 1", "-1 1"], XOR: ["10 1", "01 1"],
            NOT: ["0 1"]}
    for g, (op, args) in enumerate(circ.gates):
        name[circ.n + g] = "g%d" % g
    for g, (op, args) in enumerate(circ.gates):
        lines.append(".names " + " ".join(name[a] for a in args) +
                     " g%d" % g)
        lines.extend(rows[op])
    for k, o in enumerate(outputs):
        # A buffer names each output; inputs and gates keep their own names.
        lines.append(".names %s f%d" % (name[o], k))
        lines.append("1 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def to_pla(n, products, label, num_outputs=1):
    """`products` are (cube over circuit inputs as {i: bit}, output bits)."""
    lines = [".i %d" % n, ".o %d" % num_outputs, ".p %d" % len(products)]
    for cube, outs in products:
        cols = ["-"] * n
        for i, b in cube.items():
            cols[label[i]] = "1" if b else "0"
        lines.append("".join(cols) + " " + "".join("1" if o else "0"
                                                   for o in outs))
    lines.append(".e")
    return "\n".join(lines) + "\n"


def sop_table(n, products, label, output=0):
    """Truth table of one PLA output, computed from its cubes."""
    full = (1 << (1 << n)) - 1
    acc = 0
    for cube, outs in products:
        if not outs[output]:
            continue
        term = full
        for i, b in cube.items():
            m = var_mask(n, label[i])
            term &= m if b else full ^ m
        acc |= term
    return acc


# ---------------------------------------------------------------------------
# Function families (canonical input i = circuit input i)


def multiplier_circuit(n, out_bit):
    """Bit `out_bit` of u * v, u = inputs 0..n/2-1, v = the rest (array)."""
    h = n // 2
    c = Circuit(n)
    cols = [[] for _ in range(n + 1)]
    for i in range(h):
        for j in range(h):
            if i + j <= out_bit:
                cols[i + j].append(c.and_(i, h + j))
    for k in range(out_bit):
        col = cols[k]
        while len(col) > 1:
            if len(col) >= 3:
                s, cy = c.full_adder(col.pop(), col.pop(), col.pop())
            else:
                s, cy = c.half_adder(col.pop(), col.pop())
            col.insert(0, s)
            cols[k + 1].append(cy)
    col = cols[out_bit]
    return c, c.fold(XOR, col)


def adder_carry_circuit(n):
    """Carry-out of u + v, operands interleaved: u_i = 2i, v_i = 2i + 1."""
    c = Circuit(n)
    carry = c.and_(0, 1)
    for i in range(1, n // 2):
        a, b = 2 * i, 2 * i + 1
        carry = c.or_(c.and_(a, b), c.and_(c.or_(a, b), carry))
    return c, carry


def isa_products(n):
    """Indirect storage access: the first ceil(log2) inputs select one of
    the others, as a sum of products."""
    sel = 0
    while (1 << sel) < n - sel:
        sel += 1
    products = []
    for idx in range(n - sel):
        cube = {b: (idx >> b) & 1 for b in range(sel)}
        cube[sel + idx] = 1
        products.append((cube, [1]))
    return products


def pair_sum_products(m):
    return [({2 * p: 1, 2 * p + 1: 1}, [1]) for p in range(m)]


def threshold_circuit(n, k):
    """1 iff at least k inputs are 1: a unary counter (sorting network)."""
    c = Circuit(n)
    # reach[j] = "at least j+1 of the inputs so far are 1", j < k.
    reach = []
    for i in range(n):
        new = []
        for j in range(min(len(reach) + 1, k)):
            below = reach[j - 1] if j > 0 else None
            here = reach[j] if j < len(reach) else None
            grown = i if below is None else c.and_(below, i)
            new.append(grown if here is None else c.or_(here, grown))
        reach = new
    return c, reach[k - 1]


def random_tree_circuit(n, leaves, ops, rng):
    """Seeded random formula: input i % n at each of `leaves` leaves (a
    quarter negated), joined by gates drawn from `ops` in a random
    bracketing."""
    c = Circuit(n)
    nodes = [i % n for i in range(leaves)]
    rng.shuffle(nodes)
    nodes = [c.not_(x) if rng.random() < 0.25 else x for x in nodes]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        a, b = nodes[i], nodes.pop(i + 1)
        nodes[i] = c.gate(rng.choice(ops), a, b)
    return c, nodes[0]


def read_once_circuit(n, rng):
    """Every input once under AND/OR/NOT: its optimum is n internal nodes."""
    return random_tree_circuit(n, n, (AND, OR), rng)


def random_formula_circuit(n, leaves, rng):
    return random_tree_circuit(n, leaves, (AND, OR, XOR), rng)


def random_label(n, rng):
    label = list(range(n))
    rng.shuffle(label)
    return label


def random_sop(n, outputs, rng):
    """Multi-output PLA products: random cubes of 2-5 literals."""
    products = []
    for o in range(outputs):
        for _ in range(rng.randrange(4, 10)):
            lits = rng.sample(range(n), rng.randrange(2, 6))
            cube = {i: rng.randrange(2) for i in lits}
            outs = [0] * outputs
            outs[o] = 1
            if rng.random() < 0.3:  # shared product
                outs[rng.randrange(outputs)] = 1
            products.append((cube, outs))
    return products


# ---------------------------------------------------------------------------
# Workloads.  An instance is a dict:
#   id, family, n, format (formula|pla|blif), kind (bdd|zdd), text,
#   table (first output, as an int), closed (closed-form optimum or
#   None), symmetric (every order has the same size), canon (the table
#   under the identity labelling when the reference must be searched for,
#   else None).  Relabelling preserves the optimum, so a reference is
#   keyed by the canonical table and computed once per function.

FULL, TOY = "full", "toy"


def _instance(iid, family, n, fmt, text, table, kind="bdd", closed=None,
              symmetric=False, canon=None):
    return {"id": iid, "family": family, "n": n, "format": fmt,
            "kind": kind, "text": text, "table": table, "closed": closed,
            "symmetric": symmetric, "canon": canon}


def _searched(kw):
    return kw.get("closed") is None and not kw.get("symmetric")


def _circuit_instance(iid, family, circ, out, fmt, label, shuffle=None,
                      **kw):
    table = truth_tables(circ, [out], label)[0]
    if _searched(kw):
        kw["canon"] = truth_tables(circ, [out], list(range(circ.n)))[0]
    if fmt == "formula":
        text = to_formula(circ, out, label, shuffle)
    else:
        text = to_blif(circ, [out], label, family)
    return _instance(iid, family, circ.n, fmt, text, table, **kw)


def _pla_instance(iid, family, n, products, label, outputs=1, shuffle=None,
                  **kw):
    if _searched(kw):
        kw["canon"] = sop_table(n, products, list(range(n)))
    if shuffle is not None:
        products = shuffle.sample(products, len(products))
    return _instance(iid, family, n, "pla",
                     to_pla(n, products, label, outputs),
                     sop_table(n, products, label), **kw)


def exact_dense(seed, cycle, scale):
    """One cycle of the n = 16 dense workload (n = 8 at toy scale)."""
    n = 16 if scale == FULL else 8
    rng = random.Random("exact-dense:%d:%d" % (seed, cycle))
    pre = "d%d-" % cycle
    out = []
    c, o = adder_carry_circuit(n)
    out.append(_circuit_instance(pre + "adder", "adder_carry", c, o,
                                 "formula", random_label(n, rng)))
    out.append(_pla_instance(pre + "isa", "isa", n, isa_products(n),
                             random_label(n, rng)))
    c, o = multiplier_circuit(n, n // 2 - 1)
    out.append(_circuit_instance(pre + "mult", "multiplier_mid", c, o,
                                 "formula", random_label(n, rng)))
    c, o = read_once_circuit(n, rng)
    out.append(_circuit_instance(pre + "readonce", "read_once", c, o,
                                 "formula", random_label(n, rng), closed=n))
    return out


def exact_pruned(seed, cycle, scale):
    """One cycle of the bound-pruned workload at n = 16-18 (5-8 toy).

    Unlike the other workloads, each family keeps one fixed scrambled
    labelling: the sift seed starts from the identity order, so a new
    labelling changes the prune bound and with it the DP's work (adder
    carry(18): 1.3-2.2 s and 320-630 MB across labellings), and the
    identity labelling would hand sift the optimal order.  The seed
    shuffles operand and cube order instead, which leaves the function
    and its labels unchanged."""
    big = scale == FULL
    rng = random.Random("exact-pruned:%d:%d" % (seed, cycle))
    pre = "p%d-" % cycle

    def label(family, n):
        return random_label(n, random.Random("exact-pruned:%s" % family))

    out = []
    n = 17 if big else 8
    out.append(_pla_instance(pre + "isa", "isa", n, isa_products(n),
                             label("isa", n), shuffle=rng))
    n = 18 if big else 8
    c, o = adder_carry_circuit(n)
    out.append(_circuit_instance(pre + "adder", "adder_carry", c, o,
                                 "formula", label("adder", n), shuffle=rng))
    out.append(_pla_instance(pre + "pairsum", "pair_sum", n,
                             pair_sum_products(n // 2), label("pairsum", n),
                             shuffle=rng, closed=n))
    # A fast fifth family, so the median of a cycle falls inside the
    # threshold block rather than between two families.
    n = 16 if big else 6
    out.append(_pla_instance(pre + "pairsum-small", "pair_sum", n,
                             pair_sum_products(n // 2), label("pairsum", n),
                             shuffle=rng, closed=n))
    # Control: symmetric, so every order has the same size and the bound
    # can prune nothing.
    n, k = (16, 5) if big else (8, 3)
    c, o = threshold_circuit(n, k)
    out.append(_circuit_instance(pre + "threshold", "threshold", c, o,
                                 "formula", label("threshold", n),
                                 shuffle=rng, symmetric=True))
    return out


def exact_checkpointed(seed, cycle, scale):
    """One cycle of the checkpoint-at-every-layer workload, n = 14-16."""
    big = scale == FULL
    rng = random.Random("exact-checkpointed:%d:%d" % (seed, cycle))
    pre = "c%d-" % cycle
    out = []
    n = 16 if big else 8
    out.append(_pla_instance(pre + "pairsum", "pair_sum", n,
                             pair_sum_products(n // 2), random_label(n, rng),
                             closed=n))
    n = 15 if big else 7
    out.append(_pla_instance(pre + "isa", "isa", n, isa_products(n),
                             random_label(n, rng)))
    c, o = read_once_circuit(n, rng)
    out.append(_circuit_instance(pre + "readonce", "read_once", c, o,
                                 "formula", random_label(n, rng), closed=n))
    n = 14 if big else 8
    c, o = multiplier_circuit(n, n // 2 - 1)
    out.append(_circuit_instance(pre + "mult", "multiplier_mid", c, o,
                                 "formula", random_label(n, rng)))
    # A fast fifth family, so the median of a cycle falls inside a family.
    n = 14 if big else 6
    out.append(_pla_instance(pre + "isa-small", "isa", n, isa_products(n),
                             random_label(n, rng)))
    return out


def batch_bases(seed, count, scale):
    """The distinct functions of the batch-small stream.  Slot b fixes n
    (8-12 round robin; 5-7 at toy scale), the format (formula /
    multi-output PLA / BLIF), the family and whether a ZDD is asked for
    (every fourth slot), so every seed has the same mix; the seed draws
    the random functions and, per repetition, the labels."""
    rng = random.Random("batch-small:%d" % seed)
    sizes = (8, 9, 10, 11, 12) if scale == FULL else (5, 6, 7)
    bases = []
    for b in range(count):
        n = sizes[b % len(sizes)]
        kind = "zdd" if b % 4 == 3 else "bdd"
        fmt = ("formula", "pla", "blif")[(b // len(sizes)) % 3]
        if fmt == "pla":
            outs = 2 + b % 2
            bases.append(("random_sop", n, fmt, kind,
                          (random_sop(n, outs, rng), outs)))
            continue
        pick = (b // (3 * len(sizes))) % 4
        if n % 2 and pick >= 2:
            pick -= 2
        if pick == 0:
            circ, family = random_formula_circuit(n, 5 * n // 2, rng), \
                "random_formula"
        elif pick == 1:
            circ, family = read_once_circuit(n, rng), "read_once"
        elif pick == 2:
            circ, family = multiplier_circuit(n, n // 2 - 1), "multiplier_mid"
        else:
            circ, family = adder_carry_circuit(n), "adder_carry"
        bases.append((family, n, fmt, kind, circ))
    return bases


def batch_instance(base_index, rep, base, seed):
    family, n, fmt, kind, spec = base
    rng = random.Random("batch-small:%d:%d:%d" % (seed, base_index, rep))
    label = random_label(n, rng)
    iid = "b%d-%d-%s" % (rep, base_index, family)
    if fmt == "pla":
        products, outs = spec
        inst = _pla_instance(iid, family, n, products, label, outputs=outs,
                             kind=kind)
    else:
        circ, out = spec
        inst = _circuit_instance(iid, family, circ, out, fmt, label,
                                 kind=kind)
    inst["base"] = base_index
    return inst
