"""Every value `src/repro` keeps has a reader, statically.

The parameter rule (DESIGN.md, "What stays without a caller") says a
parameter exists only while a shipped caller sets it; this is the same
rule for values: an attribute that code in `src/repro` writes exists
only while code in `src/repro`, `benchmarks/` or `tools/` reads it.
A write is any of

- ``self.x = ...``;
- ``....x += ...`` and the other augmented assignments;
- ``....x[k] += ...``;
- ``....x.append / extend / add / appendleft(...)``;

and a read is an attribute load of the same name, or a
``getattr(obj, "x")``.  A write target, the receiver of one of those
mutating calls and a subscript store are not loads.  `examples/` do
not count as readers (the same as for parameters); tests count only
through ``ALLOWLIST``, each entry naming the pin that reads it.  A
value is read or it goes.

Run as a script, it prints every unread value.
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
WRITERS = REPO_ROOT / "src" / "repro"
READERS = (WRITERS, REPO_ROOT / "benchmarks", REPO_ROOT / "tools")
MUTATORS = frozenset({"append", "extend", "add", "appendleft"})

# value -> the pin that reads it, as "path:line"; a test reads these
# and nothing shipped does
ALLOWLIST = {
    "HotBot.partial_answers": "tests/hotbot/test_answers.py:125",
    "SecondaryManager.snapshots_received":
        "tests/core/test_process_pair.py:145",
}


def writes(tree):
    """Yield ``(name, line)`` for every attribute write in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for element in ast.walk(target):
                    if isinstance(element, ast.Attribute) \
                            and isinstance(element.ctx, ast.Store) \
                            and isinstance(element.value, ast.Name) \
                            and element.value.id == "self":
                        yield element.attr, element.lineno
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute):
                yield target.attr, target.lineno
        elif mutated(node) is not None:
            yield node.func.value.attr, node.lineno


def mutated(node):
    """The attribute ``node`` mutates, if it is ``....x.append(...)``
    or one of the other ``MUTATORS``."""
    if isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr in MUTATORS \
            and isinstance(node.func.value, ast.Attribute):
        return node.func.value
    return None


def loads(tree):
    """Every attribute name ``tree`` reads."""
    not_loads = set()
    for node in ast.walk(tree):
        receiver = mutated(node)
        if receiver is not None:
            not_loads.add(id(receiver))
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Store):
            not_loads.add(id(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load) \
                and id(node) not in not_loads:
            names.add(node.attr)
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "getattr" \
                and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant):
            names.add(node.args[1].value)
    return names


def sources(*roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path.relative_to(REPO_ROOT).as_posix(), path.read_text()


def unread(writer_sources, reader_sources):
    """``{name: "path:line"}`` for every value written in
    ``writer_sources`` that ``reader_sources`` never load, at its first
    write."""
    written = {}
    for path, text in writer_sources:
        for name, line in writes(ast.parse(text, path)):
            written.setdefault(name, f"{path}:{line}")
    read = set()
    for path, text in reader_sources:
        read |= loads(ast.parse(text, path))
    return {name: site for name, site in sorted(written.items())
            if name not in read}


def allowlist_problems(missing, allowlist=ALLOWLIST, root=REPO_ROOT):
    """An entry is stale when its value gained a shipped reader or
    stopped being written (it is then not in ``missing``), or when its
    pin no longer reads it."""
    problems = []
    for entry, pin in sorted(allowlist.items()):
        name = entry.rpartition(".")[2]
        if name not in missing:
            problems.append(
                f"{entry}: allowlisted but written nowhere or read by "
                f"shipped code; drop the entry")
            continue
        path, _, line = pin.rpartition(":")
        pin_path = root / path
        lines = pin_path.read_text().splitlines() \
            if pin_path.exists() else []
        if not (line.isdigit() and 0 < int(line) <= len(lines)
                and re.search(rf"\.{name}\b", lines[int(line) - 1])):
            problems.append(f"{entry}: its pin {pin} does not read it")
    return problems


def tree_unread():
    return unread(sources(WRITERS), sources(*READERS))


def test_every_value_src_repro_writes_has_a_reader():
    missing = tree_unread()
    allowed = {entry.rpartition(".")[2] for entry in ALLOWLIST}
    bad = [f"{site}: {name} is written and never read"
           for name, site in missing.items() if name not in allowed]
    assert not bad, "\n".join(bad)


def test_the_allowlist_is_not_stale():
    problems = allowlist_problems(tree_unread())
    assert not problems, "\n".join(problems)


def test_a_planted_unread_counter_is_named_with_its_line():
    planted = ("class Stub:\n"
               "    def __init__(self):\n"
               "        self.served = 0\n"
               "        self.hits = []\n"
               "        self.seen = {}\n"
               "        self.by_key = {}\n"
               "    def serve(self, key):\n"
               "        self.served += 1\n"
               "        self.hits.append(key)\n"
               "        self.by_key[key] += 1\n"
               "        self.seen[key] = 1\n"
               "        return self.seen\n")
    reader = "def report(stub):\n    return stub.served\n"
    assert unread([("src/repro/planted.py", planted)],
                  [("src/repro/planted.py", planted),
                   ("tools/report.py", reader)]) == {
        "by_key": "src/repro/planted.py:6",
        "hits": "src/repro/planted.py:4",
    }
    # without the reader, the counter itself is named
    assert unread([("src/repro/planted.py", planted)],
                  [("src/repro/planted.py", planted)])["served"] \
        == "src/repro/planted.py:3"
    counter_only = "def serve(self):\n    self.served += 1\n"
    assert unread([("src/repro/planted.py", counter_only)],
                  [("src/repro/planted.py", counter_only)]) \
        == {"served": "src/repro/planted.py:2"}


def test_writes_of_every_form_are_collected():
    source = ("def f(self, other, k):\n"
              "    self.a = 1\n"
              "    self.b, self.c = 1, 2\n"
              "    other.d -= 1\n"
              "    other.e[k] += 1\n"
              "    other.f.extend(k)\n"
              "    other.g.appendleft(k)\n"
              "    other.h = 1\n"
              "    self.i: int = 0\n")
    assert sorted(writes(ast.parse(source))) == [
        ("a", 2), ("b", 3), ("c", 3), ("d", 4), ("e", 5), ("f", 6),
        ("g", 7), ("i", 9)]
    # the mutating method is a load; its receiver is not
    assert loads(ast.parse(source)) == {"extend", "appendleft"}
    assert loads(ast.parse("x = getattr(o, 'j') + o.k + len(o.l)\n"
                           "o.m[0] = o.n[1]\n")) == {"j", "k", "l", "n"}


def test_a_stale_allowlist_entry_is_named(tmp_path):
    pin = tmp_path / "tests" / "test_pin.py"
    pin.parent.mkdir()
    pin.write_text("def test_pin(stub):\n    assert stub.served == 3\n")
    allowlist = {"Stub.served": "tests/test_pin.py:2",
                 "Stub.moved": "tests/test_pin.py:2",
                 "Stub.gone": "tests/test_pin.py:9"}
    assert allowlist_problems({"served": "", "moved": ""}, allowlist,
                              tmp_path) == [
        "Stub.gone: allowlisted but written nowhere or read by shipped "
        "code; drop the entry",
        "Stub.moved: its pin tests/test_pin.py:2 does not read it",
    ]


if __name__ == "__main__":
    for name, site in tree_unread().items():
        print(f"{site}: {name}")
