"""Fuzz tests of the input parsers: every byte string loads or raises OssegError.

The CLI is fuzzed the same way at its own boundary: every argument list
exits 0, 1 or 2 with at most one `error:` line and no traceback.
"""

import argparse
import contextlib
import io
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from osseg import cli
from osseg.errors import OssegError
from osseg.segmodel import ModelConfig, init_params, load_checkpoint, save_checkpoint
from osseg.synthdata import (
    SceneSpec,
    generate_dataset,
    read_dataset,
    read_image,
    read_label,
    write_dataset,
)
from osseg.trainer import TrainConfig, _CONFIG_PARSERS, parse_config_file

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _valid_pnm(magic, width, height, channels):
    header = b"%s\n%d %d\n255\n" % (magic, width, height)
    return header + bytes((i * 37) % 256 for i in range(width * height * channels))


@st.composite
def _mutated(draw, valid):
    """`valid` with one edit: a truncation, an overwritten byte, an insertion."""
    blob = bytearray(valid)
    pos = draw(st.integers(0, len(blob)))
    kind = draw(st.sampled_from(["truncate", "overwrite", "insert"]))
    if kind == "truncate":
        return bytes(blob[:pos])
    if kind == "overwrite" and pos < len(blob):
        blob[pos] = draw(st.integers(0, 255))
        return bytes(blob)
    return bytes(blob[:pos]) + draw(st.binary(min_size=1, max_size=8)) + bytes(blob[pos:])


def _pnm_bytes(magic, channels):
    header_tokens = st.lists(
        st.one_of(st.integers(-3, 300).map(lambda i: str(i).encode()),
                  st.sampled_from([b"#c\n", b"", b"x", b"255", b"\xff", b"0"])),
        max_size=4)
    return st.one_of(
        st.binary(max_size=64),
        st.tuples(header_tokens, st.binary(max_size=64)).map(
            lambda t: magic + b" " + b" ".join(t[0]) + b"\n" + t[1]),
        st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
            lambda wh: _mutated(_valid_pnm(magic, wh[0], wh[1], channels))),
    )


def _loads_or_osseg_error(read, blob):
    fd, path = tempfile.mkstemp(suffix=".pnm")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        try:
            out = read(path)
        except OssegError:
            return
        assert out.dtype in (np.float64, np.uint8)
    finally:
        os.unlink(path)


@FUZZ
@given(_pnm_bytes(b"P6", 3))
def test_read_image_loads_or_raises_osseg_error(blob):
    _loads_or_osseg_error(read_image, blob)


@FUZZ
@given(_pnm_bytes(b"P5", 1))
def test_read_label_loads_or_raises_osseg_error(blob):
    _loads_or_osseg_error(lambda path: read_label(path, num_classes=5), blob)


_VALUES = st.one_of(
    st.sampled_from(["1", "0", "-1", "64", "65", "8", "16", "nan", "inf", "-inf", "1e6",
                     "1e400", "0.5", "true", "false", "none", "variant_st", "", "1_0",
                     "99999999999999999999"]),
    st.text(max_size=6),
)
_CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(sorted(_CONFIG_PARSERS)), _VALUES).map(
        lambda kv: f"{kv[0]} = {kv[1]}".encode("utf-8")),
    st.binary(max_size=16),
    st.just(b"# comment"),
)


@FUZZ
@given(st.lists(_CONFIG_LINE, max_size=6))
def test_parse_config_file_loads_or_raises_osseg_error(lines):
    blob = b"\n".join(lines)
    fd, path = tempfile.mkstemp(suffix=".cfg")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        try:
            cfg = parse_config_file(path)
        except OssegError:
            return
        assert isinstance(cfg, TrainConfig)
    finally:
        os.unlink(path)


def _small_checkpoint():
    params = init_params(ModelConfig(num_classes=2, embed_dim=2, decoder_layers=1,
                                     backbone_channels=(1, 1, 1)), seed=0)
    fd, path = tempfile.mkstemp(suffix=".osseg")
    os.close(fd)
    try:
        save_checkpoint(path, params)
        with open(path, "rb") as f:
            return f.read()
    finally:
        os.unlink(path)


_CHECKPOINT = _small_checkpoint()
_CONFIG_END = 10 + struct.unpack("<I", _CHECKPOINT[6:10])[0]


@st.composite
def _crafted_config(draw):
    """The small checkpoint with one value of its config block replaced."""
    lines = _CHECKPOINT[10:_CONFIG_END].splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    value = draw(st.sampled_from([b"0", b"-3", b"1", b"2", b"300", b"99999999999", b"1,1",
                                  b"1,1,1,1", b"x", b""]))
    lines[k] = lines[k].partition(b"=")[0] + b"=" + value
    block = b"\n".join(lines) + b"\n"
    return _CHECKPOINT[:6] + struct.pack("<I", len(block)) + block + _CHECKPOINT[_CONFIG_END:]


@FUZZ
@given(st.one_of(_mutated(_CHECKPOINT), _crafted_config()))
def test_load_checkpoint_loads_or_raises_osseg_error(blob):
    _loads_or_osseg_error(lambda path: load_checkpoint(path).flat, blob)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A directory holding a valid 2-sample 8x8 dataset under `data` and a 5-class
    checkpoint `c.osseg`, and a function that restores both to their first bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    samples = generate_dataset(SceneSpec(seed=1, image_size=(8, 8)), 2)
    write_dataset(root / "data", "target", samples)
    save_checkpoint(root / "c.osseg", init_params(
        ModelConfig(embed_dim=4, decoder_layers=1, backbone_channels=(2, 2, 4)), seed=0))
    files = {path: path.read_bytes() for path in (root / "data" / "manifest.txt",
                                                  root / "c.osseg")}

    def restore():
        for path, blob in files.items():
            path.write_bytes(blob)

    return root, restore


# An example reads up to four rasters: 150 of them take well under a second.
@settings(FUZZ, max_examples=150)
@given(draw=st.data())
def test_read_dataset_loads_or_raises_osseg_error(dataset, draw):
    root, restore = dataset
    manifest = root / "data" / "manifest.txt"
    restore()
    manifest.write_bytes(draw.draw(_mutated(manifest.read_bytes())))
    try:
        samples = read_dataset(root / "data", num_classes=5)
    except OssegError:
        return
    assert all(s.image.shape[:2] == s.label.shape for s in samples)


def _flags(command):
    """The long flags of one subcommand, as its parser declares them."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [opt for act in sub.choices[command]._actions
            for opt in act.option_strings if opt.startswith("--")]


@st.composite
def _cli_args(draw, root):
    """`eval` or `infer`, each of the parser's own flags given a valid value,
    a junk value or none, or left out; then up to two more flags or values."""
    command = draw(st.sampled_from(["eval", "infer"]))
    valid = {"--ckpt": root / "c.osseg", "--data-root": root / "data",
             "--image": root / "data" / "target" / "img_0.ppm", "--subset": "0,2",
             "--out": root / "out" / ("r.csv" if command == "eval" else "p.pgm"),
             "--color-out": root / "out" / "p.ppm"}
    junk = st.sampled_from(["", "-1", "a", "0,9", str(root / "missing"), str(root / "out"),
                            str(root / "data"), str(root / "c.osseg")])
    flags = _flags(command)
    args = [command]
    for flag in flags:
        if flag == "--help":
            continue
        kind = draw(st.sampled_from(["valid"] * 4 + ["junk", "bare", "omit"]))
        if kind != "omit":
            args.append(flag)
        if kind == "valid" and flag in valid:
            args.append(str(valid[flag]))
        elif kind in ("valid", "junk"):
            args.append(draw(junk))
    return args + draw(st.lists(st.one_of(st.sampled_from(flags), junk), max_size=2))


@settings(FUZZ, max_examples=200)
@given(draw=st.data())
def test_cli_exits_with_a_code_and_at_most_one_error_line(dataset, draw):
    root, restore = dataset
    restore()  # an earlier example may have written its output over an input
    (root / "out").mkdir(exist_ok=True)
    argv = draw.draw(_cli_args(root))
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root / "out")  # relative outputs such as `a` land here
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code)
    text = err.getvalue()
    assert text.count("error:") <= 1 and "Traceback" not in text, (argv, text)
