"""The JVM classfile frontend: reader, decoder, abstract-stack
lowering, the in-repo assembler, and the corpus quarantine ladder for
hostile ``.class``/``.jar`` inputs."""

import struct

import pytest

from repro.corpus import DEFAULT_SUFFIXES, mine_directory
from repro.frontend.classfile import (
    ClassBuilder,
    MalformedClassfile,
    UnsupportedBytecode,
    decode,
    pack_jar,
    parse_classfile,
    parse_classfile_bytes,
    parse_field_descriptor,
    parse_method_descriptor,
    read_classfile,
)
from repro.frontend.classfile.opcodes import MNEMONIC
from repro.frontend.signatures import ApiSignatures
from repro.ir import Alloc, Assign, Call, Const, FieldLoad, FieldStore
from repro.mining import MiningConfig, MiningEngine
from repro.runtime import (
    MALFORMED_CLASSFILE,
    TAXONOMY,
    UNSUPPORTED_BYTECODE,
    classify_error,
)
from repro.specs.serialize import specs_to_json


def widget_class(name="demo.Widget"):
    """A class exercising the modelled opcode subset end to end."""
    cb = ClassBuilder(name)
    cb.field("cache", "java.util.Map")
    cb.default_init()
    code = cb.method("use", params=("java.util.List",),
                     returns="java.lang.Object")
    code.construct("java.util.HashMap")
    code.astore(2)
    code.aload(2)
    code.ldc_str("k")
    code.aload(1)
    code.iconst(0)
    code.invokeinterface("java.util.List", "get", ("int",),
                         "java.lang.Object")
    code.invokevirtual("java.util.HashMap", "put",
                       ("java.lang.Object", "java.lang.Object"),
                       "java.lang.Object")
    code.pop()
    code.aload(0)
    code.aload(2)
    code.putfield(name, "cache", "java.util.Map")
    code.aload(2)
    code.areturn()
    return cb


def evil_class(name="demo.Evil"):
    """A structurally valid class with an unassigned opcode byte."""
    cb = ClassBuilder(name)
    code = cb.method("boom", returns="void")
    code.raw(0xCB)
    code.return_()
    return cb


def body(program, fn):
    return program.functions[fn].body


# ----------------------------------------------------------------------
# descriptors


def test_method_descriptor_parsing():
    params, returns = parse_method_descriptor(
        "(Ljava/lang/String;I[[JLjava/util/Map;)V")
    assert params == ("java.lang.String", "int", "long[][]",
                      "java.util.Map")
    assert returns == "void"


def test_field_descriptor_parsing():
    assert parse_field_descriptor("[Ljava/lang/Object;") == \
        "java.lang.Object[]"
    assert parse_field_descriptor("D") == "double"


def test_bad_descriptor_is_malformed():
    with pytest.raises(MalformedClassfile):
        parse_method_descriptor("(Q)V")


# ----------------------------------------------------------------------
# reader: assemble → read round trip


def test_reader_round_trip():
    cls = read_classfile(widget_class().build())
    assert cls.name == "demo.Widget"
    assert cls.super_name == "java.lang.Object"
    assert [f.name for f in cls.fields] == ["cache"]
    assert cls.fields[0].type_name == "java.util.Map"
    use = {m.name: m for m in cls.methods}["use"]
    assert use.params == ("java.util.List",)
    assert use.returns == "java.lang.Object"
    assert not use.is_static
    assert use.code is not None and len(use.code.code) > 10


def test_long_constant_burns_two_pool_slots():
    cb = ClassBuilder("demo.Longs")
    code = cb.method("f", returns="void")
    code.ldc_long(1 << 40)
    code.op("pop2")
    code.ldc_str("after")  # interned AFTER the long: index shifted by 2
    code.pop()
    code.return_()
    program = parse_classfile(cb.build())
    consts = [s for s in body(program, "demo.Longs.f")
              if isinstance(s, Const)]
    assert (1 << 40) in [c.value for c in consts]
    assert "after" in [c.value for c in consts]


def test_exception_table_round_trip():
    cb = ClassBuilder("demo.Guarded")
    code = cb.method("go", returns="void")
    code.label("t0").aload(0)
    code.invokevirtual("demo.Guarded", "risky", (), "void")
    code.label("t1").return_()
    code.label("catch")
    code.invokevirtual("java.lang.Exception", "printStackTrace",
                       (), "void")
    code.return_()
    code.handler("t0", "t1", "catch", "java.lang.Exception")
    cls = read_classfile(cb.build())
    handler, = {m.name: m for m in cls.methods}["go"].code.handlers
    assert handler.catch_type == "java.lang.Exception"
    assert handler.start_pc == 0 < handler.handler_pc


# ----------------------------------------------------------------------
# bytecode decoding


def test_decode_switch_padding_and_wide():
    # 0: iconst_0
    # 1: tableswitch — operands start at 2, padded to offset 4;
    #    default/low/high + one jump end at offset 20
    # 20: wide aload 0x0100 (4 bytes)
    # 24: return — the target of both switch edges (1 + 23)
    code = bytes([MNEMONIC["iconst_0"], MNEMONIC["tableswitch"]])
    code += bytes(2)                       # alignment padding
    code += struct.pack(">iii", 23, 0, 0)  # default → 24, low=high=0
    code += struct.pack(">i", 23)          # case 0 → 24
    code += bytes([MNEMONIC["wide"], MNEMONIC["aload"], 0x01, 0x00])
    code += bytes([MNEMONIC["return"]])
    ops = decode(code)
    switch = next(op for op in ops if op.mnemonic == "tableswitch")
    assert switch.offset == 1 and set(switch.targets) == {24}
    wide = next(op for op in ops if op.mnemonic == "wide.aload")
    assert wide.offset == 20 and wide.operands == (0x0100,)
    assert ops[-1].mnemonic == "return" and ops[-1].offset == 24


def test_decode_rejects_unknown_opcode():
    with pytest.raises(UnsupportedBytecode) as exc:
        decode(bytes([0xCB]))
    assert exc.value.kind == UNSUPPORTED_BYTECODE
    assert exc.value.opcode == 0xCB


def test_decode_rejects_branch_into_operand_bytes():
    # goto +1 jumps into its own operand: not an instruction boundary
    with pytest.raises(MalformedClassfile):
        decode(bytes([MNEMONIC["goto"], 0x00, 0x01,
                      MNEMONIC["return"]]))


def test_decode_rejects_truncated_operands():
    with pytest.raises(MalformedClassfile):
        decode(bytes([MNEMONIC["invokevirtual"], 0x00]))


# ----------------------------------------------------------------------
# lowering


def test_lowering_models_the_aliasing_subset():
    program = parse_classfile(widget_class().build())
    assert program.language == "classfile"
    use = body(program, "demo.Widget.use")
    allocs = [s for s in use if isinstance(s, Alloc)]
    assert [a.type_name for a in allocs] == ["java.util.HashMap"]
    calls = [s for s in use if isinstance(s, Call)]
    methods = [c.method for c in calls]
    assert "java.util.List.get" in methods
    assert "java.util.HashMap.put" in methods
    # receiver/arg wiring: put's receiver is the HashMap, its second
    # argument is List.get's result
    put = next(c for c in calls if c.method.endswith("put"))
    get = next(c for c in calls if c.method.endswith("get"))
    # put's receiver is the astore'd local, aliased to the allocation
    # through an Assign (sound under the flow-insensitive solver)
    assigns = [s for s in use if isinstance(s, Assign)]
    assert any(a.dst == put.receiver and a.src == allocs[0].dst
               for a in assigns)
    assert put.args[1] == get.dst
    stores = [s for s in use if isinstance(s, FieldStore)]
    assert [(s.field,) for s in stores] == [("cache",)]


def test_lowering_synthesises_a_library_harness():
    program = parse_classfile(widget_class().build())
    assert program.entry == "main"
    harness = [s for s in body(program, "main") if isinstance(s, Call)]
    called = {c.method for c in harness}
    assert {"demo.Widget.<init>", "demo.Widget.use"} <= called
    # instance methods are driven through one shared allocation
    alloc, = (s for s in body(program, "main") if isinstance(s, Alloc))
    assert all(c.receiver == alloc.dst for c in harness)


def test_dup_duplicates_the_same_reference():
    cb = ClassBuilder("demo.Dup")
    code = cb.method("f", returns="void")
    code.new_("demo.Box")
    code.dup()
    code.aconst_null()
    code.putfield("demo.Box", "a", "java.lang.Object")
    code.aconst_null()
    code.putfield("demo.Box", "b", "java.lang.Object")
    code.return_()
    program = parse_classfile(cb.build())
    stmts = body(program, "demo.Dup.f")
    alloc, = (s for s in stmts if isinstance(s, Alloc))
    stores = [s for s in stmts if isinstance(s, FieldStore)]
    assert [s.field for s in stores] == ["a", "b"]
    assert all(s.obj == alloc.dst for s in stores)


def test_branch_join_merges_stacks_with_assigns():
    cb = ClassBuilder("demo.Pick")
    code = cb.method("pick", params=("java.lang.Object",),
                     returns="java.lang.Object")
    code.aload(1)
    code.ifnull("else")
    code.construct("demo.A")
    code.goto_("done")
    code.label("else")
    code.construct("demo.B")
    code.label("done")
    code.areturn()
    program = parse_classfile(cb.build())
    stmts = body(program, "demo.Pick.pick")
    allocs = [s.dst for s in stmts if isinstance(s, Alloc)]
    assigns = [s for s in stmts if isinstance(s, Assign)]
    ret, = (s for s in stmts if type(s).__name__ == "Return")
    merged = ret.value
    assert {a.src for a in assigns if a.dst == merged} == set(allocs)


def test_unmodelled_opcodes_degrade_to_havoc_not_failure():
    cb = ClassBuilder("demo.Math")
    code = cb.method("f", returns="int", params=("int", "int"))
    code.op("iload_1")
    code.op("iload_2")
    code.op("iadd")
    code.op("i2l")
    code.op("l2i")
    code.op("ireturn")
    program = parse_classfile(cb.build())
    assert "demo.Math.f" in program.functions


def test_stack_underflow_is_contained():
    cb = ClassBuilder("demo.Under")
    code = cb.method("f", returns="void")
    code.pop()  # nothing on the stack
    code.areturn()  # returns a havoc value
    program = parse_classfile(cb.build())
    assert "demo.Under.f" in program.functions


def test_exception_handler_block_gets_the_thrown_value():
    cb = ClassBuilder("demo.Guarded")
    code = cb.method("go", returns="void")
    code.label("t0").aload(0)
    code.invokevirtual("demo.Guarded", "risky", (), "void")
    code.label("t1").return_()
    code.label("catch").astore(1)
    code.aload(1)
    code.invokevirtual("java.lang.Exception", "printStackTrace",
                       (), "void")
    code.return_()
    code.handler("t0", "t1", "catch", "java.lang.Exception")
    program = parse_classfile(cb.build())
    calls = [s for s in body(program, "demo.Guarded.go")
             if isinstance(s, Call)]
    assert "java.lang.Exception.printStackTrace" in \
        [c.method for c in calls]


def test_signatures_are_registered_from_descriptors():
    sigs = ApiSignatures()
    parse_classfile(widget_class().build(), sigs)
    # the class's own declared method
    own = sigs.lookup("demo.Widget", "use")
    assert own is not None and own.returns == "java.lang.Object"
    # a method referenced only through the constant pool
    ref = sigs.lookup("java.util.HashMap", "put")
    assert ref is not None
    assert ref.params == ("java.lang.Object", "java.lang.Object")


def test_arrays_lower_to_bracket_field_accesses():
    cb = ClassBuilder("demo.Arr")
    code = cb.method("f", returns="java.lang.Object")
    code.iconst(3)
    code.op("anewarray",
            struct.pack(">H", cb.pool.class_("java.lang.Object")))
    code.astore(1)
    code.aload(1)
    code.iconst(0)
    code.op("aaload")
    code.areturn()
    program = parse_classfile(cb.build())
    stmts = body(program, "demo.Arr.f")
    alloc, = (s for s in stmts if isinstance(s, Alloc))
    assert alloc.type_name == "java.lang.Object[]"
    load, = (s for s in stmts if isinstance(s, FieldLoad))
    assert load.field == "[]"


# ----------------------------------------------------------------------
# hostile inputs: the quarantine ladder


def test_new_labels_are_in_the_taxonomy():
    assert MALFORMED_CLASSFILE in TAXONOMY
    assert UNSUPPORTED_BYTECODE in TAXONOMY


def test_bad_magic_is_malformed():
    data = widget_class().build()
    with pytest.raises(MalformedClassfile) as exc:
        parse_classfile_bytes(b"NOPE" + data[4:])
    assert classify_error(exc.value) == MALFORMED_CLASSFILE


def test_truncated_constant_pool_is_malformed():
    data = widget_class().build()
    for cut in (0, 4, 9, 20, len(data) // 2, len(data) - 1):
        with pytest.raises(MalformedClassfile):
            parse_classfile_bytes(data[:cut])


def test_random_garbage_never_escapes_the_typed_errors():
    import random

    rng = random.Random(1234)
    data = widget_class().build()
    for _ in range(50):
        blob = bytearray(data)
        for _ in range(8):
            blob[rng.randrange(len(blob))] = rng.randrange(256)
        try:
            parse_classfile(bytes(blob))
        except (MalformedClassfile, UnsupportedBytecode):
            pass  # anything else propagates and fails the test


def test_quarantine_ladder_in_directory_mining(tmp_path):
    good = widget_class().build()
    (tmp_path / "Widget.class").write_bytes(good)
    (tmp_path / "magic.class").write_bytes(b"NOPE" + good[4:])
    (tmp_path / "trunc.class").write_bytes(good[:25])
    (tmp_path / "evil.class").write_bytes(evil_class().build())
    (tmp_path / "binary.java").write_bytes(b"\xff\xfe\x00junk")
    report = mine_directory(tmp_path)
    assert report.n_parsed == 1
    assert report.skipped_by_kind() == {
        MALFORMED_CLASSFILE: 2,
        UNSUPPORTED_BYTECODE: 1,
        "ReadFailure": 1,
    }


def test_jar_mixes_valid_and_hostile_members(tmp_path):
    good = widget_class().build()
    pack_jar(tmp_path / "lib.jar",
             {"demo.Widget": good, "demo.Evil": evil_class().build()},
             extra={"broken/Trunc.class": good[:30],
                    "notes.txt": b"not bytecode"})
    report = mine_directory(tmp_path)
    assert report.n_parsed == 1  # the valid member still mines
    assert report.programs[0].source.endswith("!demo/Widget.class")
    kinds = report.skipped_by_kind()
    assert kinds[MALFORMED_CLASSFILE] == 1
    assert kinds[UNSUPPORTED_BYTECODE] == 1
    skipped_paths = [str(p) for p, _ in report.skipped]
    assert any(p.endswith("!broken/Trunc.class") for p in skipped_paths)


def test_unreadable_jar_quarantines_the_archive(tmp_path):
    (tmp_path / "bad.jar").write_bytes(b"PK\x03\x04 not a real zip")
    report = mine_directory(tmp_path)
    assert report.n_parsed == 0
    assert report.skipped_by_kind() == {MALFORMED_CLASSFILE: 1}


def test_default_suffixes_cover_binary_inputs():
    assert DEFAULT_SUFFIXES == (".java", ".py", ".class", ".jar")


# ----------------------------------------------------------------------
# determinism and caching over compiled corpora


def classfile_corpus(tmp_path, n=6):
    for i in range(n):
        cb = ClassBuilder(f"demo.Widget{i}")
        cb.default_init()
        code = cb.method("go", returns="void")
        code.construct("java.util.ArrayList")
        code.astore(1)
        code.aload(1)
        code.ldc_str(f"item{i}")
        code.invokevirtual("java.util.ArrayList", "add",
                           ("java.lang.Object",), "boolean")
        code.pop()
        code.aload(1)
        code.invokevirtual("java.util.ArrayList", "iterator", (),
                           "java.util.Iterator")
        code.astore(2)
        code.aload(2)
        code.invokeinterface("java.util.Iterator", "next", (),
                             "java.lang.Object")
        code.pop()
        code.return_()
        (tmp_path / f"Widget{i}.class").write_bytes(cb.build())
    return mine_directory(tmp_path).programs


def test_jobs_do_not_change_classfile_specs(tmp_path):
    programs = classfile_corpus(tmp_path)
    assert len(programs) == 6
    seq = MiningEngine(mining=MiningConfig(jobs=1)).learn(programs)
    par = MiningEngine(mining=MiningConfig(jobs=4)).learn(programs)
    assert specs_to_json(seq.specs, seq.scores) == \
        specs_to_json(par.specs, par.scores)


def test_warm_cache_covers_classfile_programs(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    programs = classfile_corpus(corpus)
    store = MiningConfig(store_dir=str(tmp_path / "store"))
    cold = MiningEngine(mining=store).learn(programs)
    assert cold.mining.n_from_store == 0
    warm = MiningEngine(mining=store).learn(programs)
    assert warm.mining.n_from_store == len(programs)
    assert warm.mining.n_analyzed == 0
    assert specs_to_json(cold.specs, cold.scores) == \
        specs_to_json(warm.specs, warm.scores)
