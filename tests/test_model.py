from __future__ import annotations

import json

import numpy as np
import pytest

from macfi.errors import (
    CycleError,
    InvalidScale,
    MacfiError,
    MissingBlob,
    ScaleMismatch,
    SchemaError,
    ShapeError,
    UnsupportedLayer,
)
from macfi.model import (
    Dataset,
    LayerSpec,
    ModelGraph,
    load_dataset,
    load_model,
    reference_forward,
    save_dataset,
    save_model,
    topo_order,
    validate_graph,
)
from macfi.qtensor import QTensor

from helpers import mac_layer, make_random_model


def tri_layer_graph() -> ModelGraph:
    rng = np.random.default_rng(5)
    layers = [
        mac_layer(rng, "conv1", "conv", "input", 2, 4, 3, 1, 1, m=2.0 ** -7),
        LayerSpec(id="relu1", kind="relu", inputs=["conv1"]),
        LayerSpec(id="gap", kind="gavgpool", inputs=["relu1"]),
        mac_layer(rng, "fc1", "fc", "gap", 4, 3, 1, m=2.0 ** -7),
    ]
    return ModelGraph(layers, (2, 4, 4), 2.0 ** -6, "fc1", 3)


class TestTopoOrder:
    def test_chain(self):
        g = tri_layer_graph()
        assert [l.id for l in topo_order(g)] == ["conv1", "relu1", "gap", "fc1"]

    def test_diamond_tie_break_by_id(self):
        layers = [
            LayerSpec(id="a", kind="relu", inputs=["input"]),
            LayerSpec(id="c", kind="relu", inputs=["a"]),
            LayerSpec(id="b", kind="relu", inputs=["a"]),
            LayerSpec(id="d", kind="add", inputs=["b", "c"]),
        ]
        g = ModelGraph(layers, (3, 1, 1), 1.0, "d", 3)
        assert [l.id for l in topo_order(g)] == ["a", "b", "c", "d"]

    def test_cycle_detected(self):
        layers = [
            LayerSpec(id="a", kind="relu", inputs=["b"]),
            LayerSpec(id="b", kind="relu", inputs=["a"]),
        ]
        g = ModelGraph(layers, (1, 1, 1), 1.0, "a", 1)
        with pytest.raises(CycleError):
            topo_order(g)

    def test_single_layer(self):
        g = ModelGraph([LayerSpec(id="r", kind="relu", inputs=["input"])],
                       (2, 1, 1), 1.0, "r", 2)
        assert [l.id for l in topo_order(g)] == ["r"]

    def test_permutation_respects_edges_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            g = make_random_model(rng)
            order = [l.id for l in topo_order(g)]
            assert sorted(order) == sorted(l.id for l in g.layers)
            pos = {lid: i for i, lid in enumerate(order)}
            for layer in g.layers:
                for src in layer.inputs:
                    if src != "input":
                        assert pos[src] < pos[layer.id]


class TestValidateGraph:
    def test_valid_fixture_is_ok(self):
        assert validate_graph(tri_layer_graph()) == []

    def test_add_scale_mismatch_names_layer(self):
        rng = np.random.default_rng(6)
        layers = [
            mac_layer(rng, "c1", "conv", "input", 2, 2, 1, m=2.0 ** -7),
            mac_layer(rng, "c2", "conv", "input", 2, 2, 1, m=2.0 ** -6),
            LayerSpec(id="res1", kind="add", inputs=["c1", "c2"]),
        ]
        layers[1].weight_scale = 2.0 ** -7  # scale c2 out = in * 2^-7 / 2^-6 != in
        g = ModelGraph(layers, (2, 2, 2), 0.5, "res1", 8)
        issues = validate_graph(g)
        assert any(isinstance(e, ScaleMismatch) and e.layer == "res1" for e in issues)

    def test_cin_mismatch_names_layer(self):
        rng = np.random.default_rng(7)
        layers = [mac_layer(rng, "conv2", "conv", "input", 3, 2, 1, m=0.5)]
        g = ModelGraph(layers, (8, 2, 2), 0.5, "conv2", 8)
        issues = validate_graph(g)
        assert any(isinstance(e, ShapeError) and e.layer == "conv2" for e in issues)

    def test_reserved_input_id(self):
        g = ModelGraph([LayerSpec(id="input", kind="relu", inputs=["input"])],
                       (1, 1, 1), 1.0, "input", 1)
        assert any(isinstance(e, SchemaError) for e in validate_graph(g))

    def test_maxpool_padding_rejected(self):
        layers = [LayerSpec(id="p", kind="maxpool", inputs=["input"], k=2, stride=2, pad=1)]
        g = ModelGraph(layers, (1, 4, 4), 1.0, "p", 4)
        assert any(isinstance(e, SchemaError) for e in validate_graph(g))

    def test_output_element_count_must_match_classes(self):
        g = tri_layer_graph()
        g.classes = 5
        assert any(isinstance(e, ShapeError) for e in validate_graph(g))


class TestModelIO:
    def test_round_trip_field_for_field(self, tmp_path):
        g = tri_layer_graph()
        save_model(g, tmp_path / "m.json", tmp_path / "w.bin")
        g2 = load_model(tmp_path / "m.json", tmp_path / "w.bin")
        assert g2 == g
        save_model(g2, tmp_path / "m2.json", tmp_path / "w2.bin")
        assert (tmp_path / "m2.json").read_bytes() == (tmp_path / "m.json").read_bytes()
        assert (tmp_path / "w2.bin").read_bytes() == (tmp_path / "w.bin").read_bytes()

    def test_round_trip_random_models(self, tmp_path):
        rng = np.random.default_rng(23)
        for i in range(10):
            g = make_random_model(rng)
            save_model(g, tmp_path / f"m{i}.json", tmp_path / f"w{i}.bin")
            assert load_model(tmp_path / f"m{i}.json", tmp_path / f"w{i}.bin") == g

    def test_missing_weights_blob_names_path(self, tmp_path):
        g = tri_layer_graph()
        save_model(g, tmp_path / "m.json", tmp_path / "w.bin")
        with pytest.raises(MissingBlob) as exc:
            load_model(tmp_path / "m.json", tmp_path / "absent.bin")
        assert "absent.bin" in str(exc.value)

    def test_blob_offset_out_of_range_names_layer(self, tmp_path):
        g = tri_layer_graph()
        save_model(g, tmp_path / "m.json", tmp_path / "w.bin")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["layers"][0]["weights"]["offset"] = 10**6
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(MissingBlob) as exc:
            load_model(tmp_path / "m.json", tmp_path / "w.bin")
        assert exc.value.layer == "conv1"

    def test_cycle_in_manifest(self, tmp_path):
        g = tri_layer_graph()
        save_model(g, tmp_path / "m.json", tmp_path / "w.bin")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["layers"][1]["inputs"] = ["gap"]  # relu1 <-> gap
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(CycleError):
            load_model(tmp_path / "m.json", tmp_path / "w.bin")

    def test_manifest_not_json(self, tmp_path):
        (tmp_path / "m.json").write_text("{nope")
        (tmp_path / "w.bin").write_bytes(b"")
        with pytest.raises(SchemaError):
            load_model(tmp_path / "m.json", tmp_path / "w.bin")

    def test_manifest_missing_key(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps({"classes": 2}))
        (tmp_path / "w.bin").write_bytes(b"")
        with pytest.raises(SchemaError):
            load_model(tmp_path / "m.json", tmp_path / "w.bin")


def _set(path, value):
    """Manifest edit that sets doc[path[0]][path[1]]... to value."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _drop_conv1_weights(doc):
    del doc["layers"][0]["weights"]


def _conv1_k5(doc):
    # 5x5 kernel on the 4x4 input with pad 0; the length fits Cin=2 so only
    # the kernel size is wrong (the blob is padded to hold it).
    doc["layers"][0].update(k=5, pad=0)
    doc["layers"][0]["weights"]["len"] = 4 * 2 * 5 * 5


# tri_layer_graph's blob: conv1 weights 72 B @0, bias 16 B @72; fc1 weights
# 12 B @88, bias 12 B @100. Every case breaks exactly one thing.
LOADER_ERRORS = {
    "weights_offset_past_end":
        (_set(["layers", 0, "weights", "offset"], 10**6), MissingBlob, "conv1"),
    "weights_offset_negative":
        (_set(["layers", 0, "weights", "offset"], -1), MissingBlob, "conv1"),
    "conv_weights_len_not_multiple":
        (_set(["layers", 0, "weights", "len"], 71), MissingBlob, "conv1"),
    "fc_weights_len_not_multiple":
        (_set(["layers", 3, "weights", "len"], 13), MissingBlob, "fc1"),
    "weights_len_fits_other_cin":
        (_set(["layers", 0, "weights", "len"], 36), ShapeError, "conv1"),
    "weights_len_zero":
        (_set(["layers", 0, "weights", "len"], 0), ShapeError, "conv1"),
    "bias_offset_past_end":
        (_set(["layers", 0, "bias", "offset"], 10**6), MissingBlob, "conv1"),
    "bias_len_not_4_cout":
        (_set(["layers", 0, "bias", "len"], 12), ShapeError, "conv1"),
    "cycle":
        (_set(["layers", 1, "inputs"], ["gap"]), CycleError, "fc1"),
    "unknown_kind":
        (_set(["layers", 1, "kind"], "gelu"), UnsupportedLayer, "relu1"),
    "classes_mismatch":
        (_set(["classes"], 5), ShapeError, None),
    "cout_zero":
        (_set(["layers", 0, "cout"], 0), SchemaError, "conv1"),
    "cout_string":
        (_set(["layers", 0, "cout"], "4"), SchemaError, "conv1"),
    "m_negative":
        (_set(["layers", 0, "m"], -0.5), InvalidScale, "conv1"),
    "k_exceeds_input":
        (_conv1_k5, ShapeError, "conv1"),
    "weights_key_missing":
        (_drop_conv1_weights, SchemaError, "conv1"),
}


@pytest.mark.parametrize("edit,error,layer", LOADER_ERRORS.values(), ids=LOADER_ERRORS.keys())
def test_loader_error_type_and_layer(tmp_path, edit, error, layer):
    man, blob = tmp_path / "m.json", tmp_path / "w.bin"
    save_model(tri_layer_graph(), man, blob)
    doc = json.loads(man.read_text())
    edit(doc)
    man.write_text(json.dumps(doc))
    blob.write_bytes(blob.read_bytes() + bytes(400))
    with pytest.raises(MacfiError) as exc:
        load_model(man, blob)
    assert type(exc.value) is error
    assert getattr(exc.value, "layer", None) == layer


def test_bias_before_weights_with_gaps_loads_same_graph(tmp_path):
    g = tri_layer_graph()
    save_model(g, tmp_path / "m.json", tmp_path / "w.bin")
    doc = json.loads((tmp_path / "m.json").read_text())
    old = (tmp_path / "w.bin").read_bytes()
    new = bytearray(b"\xa5" * 3)
    for entry in doc["layers"]:
        if "weights" not in entry:
            continue
        for key in ("bias", "weights"):
            ref = entry[key]
            chunk = old[ref["offset"]:ref["offset"] + ref["len"]]
            ref["offset"] = len(new)
            new += chunk + b"\x5a" * 5
    (tmp_path / "custom.json").write_text(json.dumps(doc))
    (tmp_path / "custom.bin").write_bytes(bytes(new))
    g2 = load_model(tmp_path / "custom.json", tmp_path / "custom.bin")
    assert g2 == g
    save_model(g2, tmp_path / "m2.json", tmp_path / "w2.bin")  # back to the sequential layout
    assert (tmp_path / "m2.json").read_bytes() == (tmp_path / "m.json").read_bytes()
    assert (tmp_path / "w2.bin").read_bytes() == old


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.integers(-128, 128, (5, 2, 3, 4)).astype(np.int8),
                     np.array([0, 1, 2, 1, 0], dtype=np.uint16), 0.125)
        save_dataset(ds, tmp_path / "d.qds")
        ds2 = load_dataset(tmp_path / "d.qds")
        assert np.array_equal(ds.samples, ds2.samples)
        assert np.array_equal(ds.labels, ds2.labels)
        assert ds2.scale == 0.125
        assert len(ds2) == 5
        assert ds2.sample(3) == QTensor(ds.samples[3], 0.125)

    def test_header_layout_is_fixed(self, tmp_path):
        ds = Dataset(np.zeros((1, 1, 2, 2), dtype=np.int8),
                     np.zeros(1, dtype=np.uint16), 1.0)
        save_dataset(ds, tmp_path / "d.qds")
        raw = (tmp_path / "d.qds").read_bytes()
        assert raw[:4] == b"QDS1"
        # u32 N, u8 C, u16 H, u16 W, f64 scale, then samples + labels
        assert len(raw) == 4 + 4 + 1 + 2 + 2 + 8 + 4 + 2

    def test_bad_magic(self, tmp_path):
        (tmp_path / "d.qds").write_bytes(b"NOPE" + bytes(17))
        with pytest.raises(SchemaError):
            load_dataset(tmp_path / "d.qds")

    def test_truncated(self, tmp_path):
        (tmp_path / "d.qds").write_bytes(b"QDS1")
        with pytest.raises(SchemaError):
            load_dataset(tmp_path / "d.qds")


def test_reference_forward_rejects_bad_input():
    g = tri_layer_graph()
    with pytest.raises(ShapeError):
        reference_forward(g, QTensor(np.zeros((1, 4, 4), dtype=np.int8), g.input_scale))
    with pytest.raises(ShapeError):
        reference_forward(g, QTensor(np.zeros((2, 4, 4), dtype=np.int8), 0.123))
