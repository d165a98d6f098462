import json

import numpy as np
import pytest

from povmlab.generators import make_rng, random_luders_instrument, random_povm, random_state
from povmlab.geometry import FourVector, RegionUnion, SpacetimeBox
from povmlab.serialization import (
    SchemaError,
    decode_instrument,
    decode_matrix,
    decode_povm,
    decode_region,
    encode_instrument,
    encode_matrix,
    encode_povm,
    encode_region,
)


class TestMatrixRoundTrip:
    def test_bit_exact_through_json(self):
        rng = make_rng(71)
        M = random_state(5, rng)
        wire = json.loads(json.dumps(encode_matrix(M)))
        back = decode_matrix(wire)
        assert np.array_equal(back, M)

    def test_pathological_doubles_survive(self):
        M = np.array([[1e-308 + 1j * (1 / 3), np.pi], [-0.1, 2**53 + 1.0]], dtype=complex)
        back = decode_matrix(json.loads(json.dumps(encode_matrix(M))))
        assert np.array_equal(back, M)

    def test_length_mismatch_reports_pointer(self):
        with pytest.raises(SchemaError) as err:
            decode_matrix({"dim": 2, "re": [1.0, 2.0, 3.0], "im": [0.0] * 4}, "/m")
        assert err.value.pointer == "/m/re"

    def test_missing_field(self):
        with pytest.raises(SchemaError) as err:
            decode_matrix({"dim": 2, "re": [0.0] * 4}, "/m")
        assert err.value.pointer == "/m/im"

    def test_non_square_rejected_on_encode(self):
        with pytest.raises(ValueError):
            encode_matrix(np.ones((2, 3)))


EYE2, EYE3 = encode_matrix(np.eye(2)), encode_matrix(np.eye(3))


class TestTaggedObjects:
    def test_povm_round_trip(self):
        povm = random_povm(3, 2, make_rng(72))
        back = decode_povm(json.loads(json.dumps(encode_povm(povm))))
        assert back.labels == povm.labels
        for a, b in zip(back.effects, povm.effects):
            assert np.array_equal(a, b)

    def test_instrument_round_trip(self):
        instr = random_luders_instrument(3, 2, make_rng(73))
        back = decode_instrument(json.loads(json.dumps(encode_instrument(instr))))
        for fa, fb in zip(back.families, instr.families):
            for a, b in zip(fa, fb):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("decode, data", [
        (decode_povm, {"kind": "povm", "effects": [EYE2, EYE3]}),
        (decode_instrument, {"kind": "instrument", "families": [[EYE2], [EYE2, EYE3]]}),
        (decode_povm, {"kind": "povm", "effects": [EYE2, EYE2], "labels": ["only one"]}),
        (decode_povm, {"kind": "povm", "effects": [EYE2, EYE2], "labels": 5}),
        (decode_instrument, {"kind": "instrument", "families": [[EYE2]], "labels": 5}),
    ])
    def test_parts_that_do_not_fit_together_refused_at_the_object(self, decode, data):
        with pytest.raises(SchemaError) as err:
            decode(data, "/x")
        assert err.value.pointer == "/x"


class TestRegions:
    def test_round_trip(self):
        region = RegionUnion(
            [
                SpacetimeBox(FourVector(0, 0, 0, 0), FourVector(0, 1, 1, 1)),
                SpacetimeBox(FourVector(0.5, -1, 0, 0), FourVector(1.5, 0, 1, 1)),
            ]
        )
        back = decode_region(json.loads(json.dumps(encode_region(region))))
        assert back.boxes == region.boxes
        assert back.frame == region.frame

    def test_wire_schema_shape(self):
        region = RegionUnion([SpacetimeBox(FourVector(0, 0, 0, 0), FourVector(0, 1, 1, 1))])
        wire = encode_region(region)
        assert wire["frame"] == [1.0, 0.0, 0.0, 0.0]
        assert wire["boxes"][0]["lo"] == [0.0, 0.0, 0.0, 0.0]
        assert wire["boxes"][0]["hi"] == [0.0, 1.0, 1.0, 1.0]

    def test_inverted_box_rejected_with_pointer(self):
        with pytest.raises(SchemaError) as err:
            decode_region(
                {"frame": [1, 0, 0, 0],
                 "boxes": [{"lo": [0, 1, 0, 0], "hi": [0, 0, 1, 1]}]},
                "/r",
            )
        assert err.value.pointer == "/r/boxes/0"

    def test_bad_frame(self):
        with pytest.raises(SchemaError):
            decode_region({"frame": [0, 1, 0, 0], "boxes": [{"lo": [0] * 4, "hi": [0] * 4}]})
