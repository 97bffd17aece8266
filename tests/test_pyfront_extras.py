"""Edge cases of the Python frontend: imports, modules, odd constructs."""

import sys

import pytest

from repro.frontend.pyfront import parse_python
from repro.frontend.signatures import ApiSignatures, MethodSig
from repro.ir import Call, iter_calls, iter_instructions


def calls_of(prog, fn="main"):
    return [c.method for c in iter_calls(prog.functions[fn])]


def _sigs_with_element():
    s = ApiSignatures()
    s.register(MethodSig("xml.etree.ElementTree.Element", "set", "void"))
    s.register(MethodSig("xml.etree.ElementTree", "fromstring",
                         "xml.etree.ElementTree.Element"))
    return s


def test_class_looking_module_component():
    """xml.etree.ElementTree is a module despite the class-looking name —
    the signature registry's prefix knowledge resolves it."""
    prog = parse_python(
        "import xml.etree.ElementTree\n"
        'el = xml.etree.ElementTree.fromstring("<a/>")\n'
        'el.set("k", "v")\n',
        signatures=_sigs_with_element(),
    )
    methods = calls_of(prog)
    assert "xml.etree.ElementTree.fromstring" in methods
    assert "xml.etree.ElementTree.Element.set" in methods


def test_dotted_import_binds_top_name():
    prog = parse_python(
        "import numpy.random\n"
        "r = numpy.random.RandomState()\n"
        "s = r.get_state()\n"
    )
    assert "numpy.random.RandomState.get_state" in calls_of(prog)


def test_import_as_overrides():
    prog = parse_python("import numpy.random as rnd\nr = rnd.RandomState()\n")
    allocs = [i for i in iter_instructions(prog.functions["main"].body)
              if type(i).__name__ == "Alloc"]
    assert any(a.type_name == "numpy.random.RandomState" for a in allocs)


def test_os_environ_is_singleton_per_function():
    prog = parse_python(
        "import os\n"
        'os.environ["A"] = x\n'
        'y = os.environ["A"]\n'
    )
    stores = [c for c in iter_calls(prog.functions["main"])
              if "SubscriptStore" in c.method]
    loads = [c for c in iter_calls(prog.functions["main"])
             if "SubscriptLoad" in c.method]
    assert stores[0].receiver == loads[0].receiver
    assert stores[0].method == "os.environ.SubscriptStore"


def test_augassign_rebinds():
    prog = parse_python("x = 1\nx += 2\nuse(x)\n")
    use = next(c for c in iter_calls(prog.functions["main"])
               if c.method == "use")
    assert use.args[0].name.startswith("x")


def test_tuple_unpack_assigns_all_names():
    prog = parse_python("a, b = pair()\nuse(a)\nuse(b)\n")
    uses = [c for c in iter_calls(prog.functions["main"])
            if c.method == "use"]
    assert len(uses) == 2
    assert uses[0].args[0] != uses[1].args[0]


def test_while_else_and_for_else():
    prog = parse_python(
        "while cond():\n    tick()\nelse:\n    done()\n"
        "for i in items():\n    tock()\nelse:\n    fin()\n"
    )
    methods = calls_of(prog)
    for m in ("tick", "done", "tock", "fin"):
        assert m in methods


def test_decorated_function_still_lowered():
    prog = parse_python(
        "@decorator\n"
        "def handler():\n"
        "    return work()\n"
    )
    assert "work" in calls_of(prog, "handler")


def test_nested_function_lowered_separately():
    prog = parse_python(
        "def outer():\n"
        "    def inner():\n"
        "        return deep()\n"
        "    return inner\n"
    )
    assert "inner" in prog.functions
    assert "deep" in calls_of(prog, "inner")


def test_starred_call_args_evaluated():
    prog = parse_python("f(*args, **kw)\n")
    f = next(c for c in iter_calls(prog.functions["main"]) if c.method == "f")
    assert f.nargs == 2  # the starred containers themselves


def test_class_body_methods_collected():
    prog = parse_python(
        "class Service:\n"
        "    def start(self):\n"
        "        boot()\n"
        "    async def poll(self):\n"
        "        check()\n"
    )
    assert "boot" in calls_of(prog, "start")
    assert "check" in calls_of(prog, "poll")


def test_keyword_arguments_appended():
    prog = parse_python("api(1, flag=True)\n")
    call = next(c for c in iter_calls(prog.functions["main"])
                if c.method == "api")
    assert call.nargs == 2


def test_slice_subscript_does_not_crash():
    prog = parse_python("xs = []\nys = xs[1:3]\n")
    assert "main" in prog.functions


def test_conditional_expression_merges():
    prog = parse_python("x = a() if cond else b()\nuse(x)\n")
    use = next(c for c in iter_calls(prog.functions["main"])
               if c.method == "use")
    assert use.args[0].name.startswith("ifexp#")


_NESTED_DEFS = '''\
from lib import (top, nested, method, in_if, in_elif, in_else, in_for,
                 for_else, in_while, while_else, in_try, in_except, try_else,
                 in_finally, in_with, coro, in_async_for,
                 in_async_with, helper)

def top():
    def nested():
        pass

class Box:
    def method(self):
        pass

if flag:
    def in_if():
        pass
elif other:
    def in_elif():
        pass
else:
    def in_else():
        pass

for item in items:
    def in_for():
        pass
else:
    def for_else():
        pass

while cond:
    def in_while():
        pass
else:
    def while_else():
        pass

try:
    def in_try():
        pass
except ValueError:
    def in_except():
        pass
else:
    def try_else():
        pass
finally:
    def in_finally():
        pass

with manager() as handle:
    def in_with():
        pass

async def coro():
    async for chunk in stream:
        def in_async_for():
            pass
    async with lock:
        def in_async_with():
            pass
'''
_DEF_NAMES = ("top nested method in_if in_elif in_else in_for for_else "
              "in_while while_else in_try in_except try_else in_finally "
              "in_with coro in_async_for in_async_with").split()


def test_def_in_any_block_shadows_an_import():
    """A ``def`` anywhere in the module — nested in a function, class,
    branch, loop, ``else``, handler, ``finally``, ``with`` or ``async``
    block — makes a call of its name internal, even though the
    name is also imported; ``helper``, imported and never defined, stays
    an external call."""
    calls = "".join(f"{name}()\n" for name in _DEF_NAMES + ["helper"])
    methods = calls_of(parse_python(_NESTED_DEFS + calls))
    for name in _DEF_NAMES:
        assert name in methods
        assert f"lib.{name}" not in methods
    assert "lib.helper" in methods and "helper" not in methods


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="match statements need Python 3.10")
def test_def_in_a_match_case_shadows_an_import():
    source = ("from lib import in_case\n"
              "match command:\n"
              "    case \"go\":\n"
              "        def in_case():\n"
              "            pass\n"
              "in_case()\n")
    methods = calls_of(parse_python(source))
    assert "in_case" in methods and "lib.in_case" not in methods
