"""Seeded inputs. Everything a run feeds the program comes from here and
from --seed alone: the same seed writes the same files and the same
operation lists. The program only ever sees the written files.

The generated programs themselves come from fixed Cgen seeds, as in the
repo's Extension D experiment: two Cgen programs of one size can differ
fourfold in solve time, so programs drawn from --seed would make the
figures of one run say more about its draw than about the program
under test. --seed draws everything else: the order of operations, the
edit streams, and the serve request stream with its near-repeats,
removals and repeats."""

import os
import random
import subprocess

INSTANCES = ["collapse-always", "collapse-on-cast", "cis", "offsets"]

# Cgen seeds of the generated programs (see above).
PROGRAM_SEED = 2026

# Cgen statements in main for the cold-analyze ladder. With calls on,
# they lower to about 1.2k, 2.4k, 4.7k and 9.4k normalized statements,
# the sizes at which no instance degrades under the default budget.
LADDER = [440, 880, 1750, 3500]

# edit-watch: one mid-size program (about 0.8k normalized statements),
# one session per instance.
WATCH_STMTS = 300

# serve-store: fresh programs per round, and how often each one's fresh,
# near-repeat and removal request is repeated exactly. Repeats are 5 of
# every 8 requests, so the median request is a store hit and the tail
# is a miss.
SERVE_PROGRAMS = 8
SERVE_STMTS = 300
REPEATS = {"fresh": 2, "near": 2, "removal": 1}

# Statements that lower without temporaries, so inserting them keeps
# every other statement's key (an additive near-repeat of a program).
SIMPLE = [
    "pi0 = &x0;", "pi1 = &x1;", "pi0 = &x2;", "pi1 = &x3;", "pc0 = &c0;",
    "pc0 = &c1;", "ppi0 = &pi0;", "ppi0 = &pi1;", "pg0 = &g0_a;",
    "pg1 = &g1_b;", "pg2 = &g2_a;", "pg3 = &g3_b;",
]


class Ctx:
    """Paths of one run: the checkout, the built binaries, the run's own
    fresh directory."""

    def __init__(self, root, rundir, seed):
        self.rundir = rundir
        self.seed = seed
        self.exe = os.path.join(root, "_build/default/bin/structcast.exe")
        self.tool = os.path.join(root, "_build/default/perfbench/tool/pbtool.exe")

    def path(self, *parts):
        p = os.path.join(self.rundir, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p

    def run_tool(self, *args):
        return subprocess.run([self.tool, *args], check=True, capture_output=True,
                              text=True).stdout

    def corpus(self):
        out = subprocess.run([self.exe, "corpus"], check=True, capture_output=True,
                             text=True).stdout
        return [l.split()[0] for l in out.splitlines()[1:] if l.strip()]

    def cgen(self, n_stmts, seed, path):
        with open(path, "w") as f:
            f.write(self.run_tool("cgen", str(n_stmts), str(seed)))
        return path


def write(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def body_range(lines):
    """Indices of main's statements: after its opening line, before the
    closing brace."""
    start = lines.index("void main(void) {") + 1
    end = len(lines) - 1
    while lines[end] != "}":
        end -= 1
    return start, end


def check_clean(ctx, files):
    """Every generated file must compile with no diagnostics."""
    for chunk in range(0, len(files), 200):
        out = ctx.run_tool("diags", *files[chunk:chunk + 200])
        for line in out.splitlines():
            f, n = line.rsplit(" ", 1)
            if n != "0":
                raise RuntimeError(f"generated input {f} has {n} diagnostics")


# ---------------------------------------------------------------- cold

def cold_analyze(ctx):
    """(spec, instance) operations of one round: the corpus and the
    ladder under all four instances, in a seeded order. Also returns the
    warm-up specs and the specs the naive reference covers."""
    r = random.Random(ctx.seed)
    corpus = ctx.corpus()
    ladder = [ctx.cgen(n, PROGRAM_SEED, ctx.path("ladder", f"l{n}.c")) for n in LADDER]
    check_clean(ctx, ladder)
    ops = [(spec, inst) for spec in corpus + ladder for inst in INSTANCES]
    r.shuffle(ops)
    return {"ops": ops, "warmup": corpus, "naive": corpus + ladder[:1],
            "ladder": ladder}


# ---------------------------------------------------------------- watch

# edit-watch: the lines a session types, one per episode, and the body
# pick_int is rewritten to in each episode.
TYPED = ["pi0 = &x2;", "pc0 = &c1;", "pg1 = &g1_b;", "ppi0 = &pi1;", "pi1 = &x3;",
         "pg3 = &g3_b;"]
PICK_INT = "int *pick_int(int *a, int *b) "
REWRITES = ["{ if (b) return b; return a; }", "{ return a; }",
            "{ if (a) return a; return b; }", "{ return b; }",
            "{ if (b) return b; return a; }", "{ if (a) return a; return b; }"]


def edit_stream(r, base):
    """A session's edits: per episode, type a line into main, rewrite
    pick_int's body, delete the typed line, re-insert it at another
    place. Every session makes the same edits (so every seed does the
    same amount of work); the seed picks the order of the typed lines
    and every position. Lines of the generated program itself are never
    deleted or moved: on some seeds that makes the warm answer differ
    from a scratch analysis (see CHANGES.md)."""
    cur = list(base)
    versions = []

    def edit(kind):
        versions.append((list(cur), kind))

    for line, body in zip(r.sample(TYPED, len(TYPED)), REWRITES):
        start, end = body_range(cur)
        at = r.randrange(start, end + 1)
        cur.insert(at, "  " + line)
        edit("type")
        cur[next(i for i, l in enumerate(cur) if l.startswith(PICK_INT))] = PICK_INT + body
        edit("rewrite")
        del cur[at]
        edit("delete")
        start, end = body_range(cur)
        cur.insert(r.randrange(start, end + 1), "  " + line)
        edit("reinsert")
    return versions


def edit_watch(ctx):
    """One base program and, per instance, a session's edit stream. Each
    version is kept as its own file (named like the watched file, so the
    reference analysis reports the same program name)."""
    r = random.Random(ctx.seed)
    base_path = ctx.cgen(WATCH_STMTS, PROGRAM_SEED + 1, ctx.path("base", "prog.c"))
    with open(base_path) as f:
        base = f.read().splitlines()
    sessions = []
    files = []
    for i, inst in enumerate(INSTANCES):
        versions, kinds = [], []
        for k, (v, kind) in enumerate(edit_stream(r, base)):
            p = ctx.path("edits", f"s{i}", f"e{k}", "prog.c")
            write(p, v)
            versions.append(p)
            kinds.append(kind)
        files += versions
        sessions.append({"instance": inst, "versions": versions, "kinds": kinds})
    check_clean(ctx, files)
    return {"base": base_path, "file": ctx.path("watch", "prog.c"), "sessions": sessions}


# ---------------------------------------------------------------- serve

def serve_store(ctx):
    """One round's request stream: (path, instance, kind). Every fresh
    program contributes the same requests: itself, an additive
    near-repeat, a removal, and REPEATS exact repeats of those three, so
    every seed asks for the same work; the seed picks the inserted
    statements, the removed line, the order within each program (a
    derived request or repeat always after what it derives from) and the
    interleaving of the programs."""
    r = random.Random(ctx.seed)
    queues = []
    for i in range(SERVE_PROGRAMS):
        inst = INSTANCES[i % len(INSTANCES)]
        fresh = ctx.cgen(SERVE_STMTS, PROGRAM_SEED + 2 + i, ctx.path("serve", f"f{i}.c"))
        with open(fresh) as f:
            lines = f.read().splitlines()
        start, end = body_range(lines)
        near = list(lines)
        for stmt in r.sample(SIMPLE, 2):
            near.insert(r.randrange(start, end + 1), "  " + stmt)
        body = lines[start:end]
        # a line whose text is unique in main: removing it yields a
        # program no other request shares a key with
        gone = r.choice([j for j in range(start, end) if body.count(lines[j]) == 1])
        removal = lines[:gone] + lines[gone + 1:]
        paths = {"fresh": fresh}
        for kind, text in (("near", near), ("removal", removal)):
            paths[kind] = ctx.path("serve", f"{kind[0]}{i}.c")
            write(paths[kind], text)
        # the fresh request first, so it never warm-starts from its own
        # removal; then a seeded order in which repeats follow originals
        todo = [("near", "fresh"), ("removal", "fresh")] + [
            ("repeat", k) for k, n in REPEATS.items() for _ in range(n)]
        done, queue = {"fresh"}, [(fresh, inst, "fresh")]
        while todo:
            kind, of = r.choice([t for t in todo if t[1] in done])
            todo.remove((kind, of))
            done.add(kind)
            queue.append((paths[of if kind == "repeat" else kind], inst, kind))
        queues.append(queue)
    stream = []
    while any(queues):
        q = r.choices([q for q in queues if q], weights=[len(q) for q in queues if q])[0]
        stream.append(q.pop(0))
    check_clean(ctx, sorted({p for p, _, _ in stream}))
    return {"stream": stream, "warmup": ("wc", "cis"),
            "repeats": sum(1 for *_, k in stream if k == "repeat")}
