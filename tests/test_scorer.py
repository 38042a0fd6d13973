import numpy as np
import pytest

from depthrank.errors import DatasetFormatError, InvalidInputError
from depthrank.rng import SplitMix64
from depthrank.scorer import (SCORER_LINEAR, SCORER_MLP, LinearScorer, MlpScorer,
                              params_to_vector, random_params, read_params, vector_to_params)

LINEAR = "depthrank.params.v1 family=linear dim=2"
W = "w 0x1.0000000000000p+0 -0x1.0000000000000p+1"
B = "b 0x1.8000000000000p-1"
MLP_RECORDS = ["w_hidden 0x1p+0 0x1p+0", "b_hidden 0x0p+0", "w_out 0x1p+0", "b_out 0x0p+0"]


def write(tmp_path, *lines):
    path = tmp_path / "p.txt"
    path.write_text("".join(line + "\n" for line in lines))
    return path


@pytest.mark.parametrize(
    "lines, line_no",
    [
        pytest.param([LINEAR, W], 3, id="missing-record"),
        pytest.param([LINEAR, "w 0x1p+0", B], 2, id="wrong-value-count"),
        pytest.param([LINEAR, W, "w 0x1p+0"], 3, id="wrong-record-name"),
        pytest.param([LINEAR, "w zz 0x1p+0", B], 2, id="bad-hex-token"),
        pytest.param(["depthrank.params.v1 family=cnn dim=2", W, B], 1, id="unknown-family"),
        pytest.param(["depthrank.params.v1 dim=2", W, B], 1, id="missing-family"),
        pytest.param(["depthrank.params.v1 family=mlp dim=2", *MLP_RECORDS], 1,
                     id="missing-hidden"),
        pytest.param(["depthrank.params.v1 family=linear dim=two", W, B], 1,
                     id="non-integer-dim"),
        pytest.param([LINEAR, "w nan 0x1p+0", B], 2, id="nan-value"),
        pytest.param([LINEAR, W, "b -inf"], 3, id="inf-value"),
        pytest.param(["depthrank.params.v1 family=mlp dim=2 hidden=0",
                      "w_hidden", "b_hidden", "w_out", "b_out 0x0p+0"], 1, id="zero-hidden"),
        pytest.param([LINEAR, W, B, "", "c 0x1p+0"], 5, id="trailing-record"),
    ],
)
def test_malformed_params_file_names_its_line(tmp_path, lines, line_no):
    with pytest.raises(DatasetFormatError) as info:
        read_params(write(tmp_path, *lines))
    assert info.value.line == line_no
    assert str(info.value).startswith(f"line {line_no}: ")


@pytest.mark.parametrize("header, message", [
    ("family=linear dim=+2", "dim must be ASCII digits, got '+2'"),
    ("family=mlp dim=2 hidden=0_1", "hidden must be ASCII digits, got '0_1'"),
])
def test_header_sizes_are_ascii_digits(tmp_path, header, message):
    with pytest.raises(DatasetFormatError) as info:
        read_params(write(tmp_path, f"depthrank.params.v1 {header}", W, B))
    assert str(info.value) == f"line 1: malformed header: {message}"


def test_overflowing_value_is_a_format_error_at_its_line(tmp_path):
    with pytest.raises(DatasetFormatError) as info:
        read_params(write(tmp_path, LINEAR, W, "b 0x1p5000"))
    assert str(info.value) == (
        "line 3: bad float token: hexadecimal value too large to represent as a float")


def test_non_ascii_byte_names_its_line(tmp_path):
    path = tmp_path / "p.txt"
    path.write_bytes(f"{LINEAR}\r\n{W}\r\n".encode() + b"b 0x1p+0\xff\r\n")
    with pytest.raises(DatasetFormatError) as info:
        read_params(path)
    assert info.value.line == 3
    assert str(info.value) == "line 3: non-ASCII byte 0xff"


def test_trailing_blank_lines_are_accepted(tmp_path):
    params = read_params(write(tmp_path, LINEAR, W, B, "", "  "))
    assert isinstance(params, LinearScorer)
    assert params.w.tolist() == [1.0, -2.0] and params.b == 0.75


def test_mlp_sizes_come_from_the_header(tmp_path):
    params = read_params(write(tmp_path, "depthrank.params.v1 family=mlp dim=2 hidden=1",
                               *MLP_RECORDS))
    assert isinstance(params, MlpScorer)
    assert params.sizes == {"dim": 2, "hidden": 1}
    assert params.w_hidden.shape == (1, 2)


def test_scorer_copies_the_callers_arrays():
    w = np.array([1.0, 2.0])
    params = LinearScorer(w=w, b=0.5)
    w[0] = 9.0
    assert params.w.tolist() == [1.0, 2.0]
    assert not params.w.flags.writeable
    vec = params_to_vector(params)
    rebuilt = vector_to_params(vec, params)
    vec[:] = 0.0
    assert rebuilt.w.tolist() == [1.0, 2.0] and rebuilt.b == 0.5


def mlp_template():
    return random_params(SCORER_MLP, 3, 4, SplitMix64(2))


@pytest.mark.parametrize("size", [0, 4, 6])
def test_vector_to_params_rejects_a_wrong_size(size):
    template = LinearScorer(w=np.zeros(4), b=0.0)
    with pytest.raises(InvalidInputError, match=f"expected 5 parameters, got {size}"):
        vector_to_params(np.zeros(size), template)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vector_to_params_rejects_a_non_finite_value(bad):
    template = mlp_template()
    vec = params_to_vector(template)
    vec[7] = bad
    with pytest.raises(InvalidInputError, match="mlp scorer parameters must be finite"):
        vector_to_params(vec, template)


def test_vector_to_params_fields_are_read_only_and_detached():
    template = mlp_template()
    vec = params_to_vector(template) + 1.0
    params = vector_to_params(vec, template)
    assert type(params) is MlpScorer and params.sizes == {"dim": 3, "hidden": 4}
    for name in ("w_hidden", "b_hidden", "w_out"):
        value = getattr(params, name)
        assert value.dtype == np.float64 and not value.flags.writeable
        assert value.shape == getattr(template, name).shape
        with pytest.raises(ValueError):
            value.flags.writeable = True
    assert type(params.b_out) is float
    kept = params_to_vector(params).tobytes()
    vec[:] = 0.0
    assert params_to_vector(params).tobytes() == kept


@pytest.mark.parametrize("family", [SCORER_LINEAR, SCORER_MLP])
def test_vector_round_trip_is_bit_exact(family):
    template = random_params(family, 5, 3, SplitMix64(4))
    vec = SplitMix64(5).normals(params_to_vector(template).size) * 1e300
    vec[0], vec[-1] = -0.0, 5e-324
    assert params_to_vector(vector_to_params(vec, template)).tobytes() == vec.tobytes()
