import json
import struct
import warnings

import numpy as np
import pytest

from interactive import (
    ConvLayer,
    NetworkSpec,
    RasterImage,
    connection_activeness,
    generate_model,
    read_image,
    save_model,
    write_image,
)
from interactive.activeness import gamma_stacks
from interactive.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, FEATURE_MAGIC, MAX_SAMPLES, main


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "m.model"
    save_model(generate_model("tiny-2conv", seed=7), path)
    return path


@pytest.fixture()
def image_path(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "img.ppm"
    write_image(RasterImage(pixels=rng.integers(0, 256, size=(24, 30, 3), dtype=np.uint8)), path)
    return path


class TestGenModel:
    def test_writes_model_and_prints_shapes(self, tmp_path, capsys):
        out = tmp_path / "gen.model"
        assert main(["gen-model", "--arch", "tiny-2conv", "--seed", "7", "--out", str(out)]) == EXIT_OK
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "8x8x4" in stdout and "4x4x8" in stdout

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        main(["gen-model", "--arch", "tiny-3conv", "--seed", "3", "--out", str(a)])
        main(["gen-model", "--arch", "tiny-3conv", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_arch_exits_2_listing_templates(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-model", "--arch", "bogus", "--out", str(tmp_path / "x.model")])
        assert exc.value.code == EXIT_USAGE
        assert "tiny-2conv" in capsys.readouterr().err

    def test_global_seed_fallback(self, tmp_path):
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        main(["--seed", "5", "gen-model", "--arch", "tiny-2conv", "--out", str(a)])
        main(["gen-model", "--arch", "tiny-2conv", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_io_failure_exits_3(self, tmp_path):
        out = tmp_path / "missing" / "dir" / "x.model"
        assert main(["gen-model", "--arch", "tiny-2conv", "--out", str(out)]) == EXIT_IO

    def test_input_shape_override(self, tmp_path, capsys):
        out = tmp_path / "wide.model"
        code = main(["gen-model", "--arch", "tiny-fc", "--input", "12", "12", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert "1x1x10" in capsys.readouterr().out

    @pytest.mark.parametrize("arch, size, layer", [
        ("tiny-2conv", ("100000", "100000", "3"), "input"),
        ("tiny-fc", ("100000", "100000", "3"), "input"),
        ("tiny-fc", ("2000", "2000", "1"), "conv-1"),  # the input fits, conv-1's 2000x2000x4 does not
    ])
    def test_oversized_input_exits_2_before_any_kernel(self, tmp_path, capsys, arch, size, layer):
        out = tmp_path / "huge.model"
        assert main(["gen-model", "--arch", arch, "--input", *size, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {layer} shape ") and "guard" in err[0]
        assert not out.exists()

    def test_log_env_var_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INTERACTIVE_LOG", "debug")
        out = tmp_path / "m.model"
        assert main(["gen-model", "--arch", "tiny-2conv", "--out", str(out)]) == EXIT_OK


class TestActiveness:
    def run(self, model_path, image_path, tmp_path, *extra):
        hm = tmp_path / "hm.pgm"
        feat = tmp_path / "f.bin"
        code = main(
            ["activeness", "--model", str(model_path), "--image", str(image_path),
             "--heatmap", str(hm), "--features", str(feat), *extra]
        )
        return code, hm, feat

    def test_valid_invocation_writes_both_files(self, model_path, image_path, tmp_path):
        code, hm, feat = self.run(model_path, image_path, tmp_path, "--layer", "pool-1")
        assert code == EXIT_OK
        heatmap = read_image(hm)
        assert (heatmap.width, heatmap.height) == (30, 24)  # original image dims
        raw = feat.read_bytes()
        assert raw[:8] == FEATURE_MAGIC
        dims = struct.unpack("<I", raw[8:12])[0]
        assert dims == 4 and len(raw) == 16 + 4 * dims

    def test_input_layer_target(self, model_path, image_path, tmp_path):
        code, hm, feat = self.run(model_path, image_path, tmp_path, "--layer", "input", "--config", "next")
        assert code == EXIT_OK
        dims = struct.unpack("<I", feat.read_bytes()[8:12])[0]
        assert dims == 3

    def test_deterministic_outputs(self, model_path, image_path, tmp_path):
        _, hm1, f1 = self.run(model_path, image_path, tmp_path, "--layer", "pool-1")
        hm1_bytes, f1_bytes = hm1.read_bytes(), f1.read_bytes()
        _, hm2, f2 = self.run(model_path, image_path, tmp_path, "--layer", "pool-1")
        assert hm2.read_bytes() == hm1_bytes and f2.read_bytes() == f1_bytes

    def test_constant_zero_image_on_bias_free_model_gives_flat_heatmap(self, tmp_path):
        base = generate_model("tiny-2conv", seed=7)
        layers = tuple(
            ConvLayer(kernel=l.kernel, bias=np.zeros_like(l.bias), stride=l.stride,
                      padding=l.padding, apply_relu=l.apply_relu)
            if isinstance(l, ConvLayer) else l
            for l in base.layers
        )
        model = tmp_path / "zero.model"
        save_model(NetworkSpec(layers=layers, input_shape=base.input_shape, names=base.names), model)
        img = tmp_path / "black.pgm"
        write_image(RasterImage(pixels=np.zeros((10, 10, 1), dtype=np.uint8)), img)
        code, hm, _ = self.run(model, img, tmp_path, "--layer", "pool-1", "--mean", "0")
        assert code == EXIT_OK
        assert np.all(read_image(hm).pixels == 128)

    def test_bad_norm_exits_2(self, model_path, image_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self.run(model_path, image_path, tmp_path, "--layer", "pool-1", "--p", "3")
        assert exc.value.code == EXIT_USAGE

    def test_unknown_layer_exits_2(self, model_path, image_path, tmp_path, capsys):
        code, _, _ = self.run(model_path, image_path, tmp_path, "--layer", "pool-9")
        assert code == EXIT_USAGE
        assert "pool-9" in capsys.readouterr().err

    def test_pool_successor_exits_2_with_explanation(self, model_path, image_path, tmp_path, capsys):
        code, _, _ = self.run(model_path, image_path, tmp_path, "--layer", "conv-1")
        assert code == EXIT_USAGE
        assert "layer 'conv-1' is followed by pooling layer 'pool-1'" in capsys.readouterr().err

    def test_final_layer_exits_2(self, model_path, image_path, tmp_path, capsys):
        code, _, _ = self.run(model_path, image_path, tmp_path, "--layer", "conv-2")
        assert code == EXIT_USAGE
        assert "layer 'conv-2' is the final layer" in capsys.readouterr().err

    # on toy-cnn, +-1e308 overflows in conv-1 and 1e200 only in the weighted response
    @pytest.mark.parametrize("mean, message", [
        ("1e308", "error: layer conv-1: output contains NaN or Inf"),
        ("1e200", "error: overflow encountered in multiply"),
        ("-1e308", "error: layer conv-1: output contains NaN or Inf"),
    ], ids=["1e308", "1e200", "-1e308"])
    def test_numeric_overflow_exits_2_with_one_line(self, image_path, tmp_path, capsys, mean, message):
        model = tmp_path / "toy.model"
        save_model(generate_model("toy-cnn", seed=3), model)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = self.run(model, image_path, tmp_path, "--layer", "input", f"--mean={mean}")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert caught == []

    def test_missing_model_exits_3(self, tmp_path, image_path):
        code, _, _ = self.run(tmp_path / "absent.model", image_path, tmp_path, "--layer", "pool-1")
        assert code == EXIT_IO

    def test_no_outputs_requested_exits_2(self, model_path, image_path):
        code = main(["activeness", "--model", str(model_path), "--image", str(image_path),
                     "--layer", "pool-1"])
        assert code == EXIT_USAGE


class TestGradcheck:
    def test_passes_on_generated_model(self, model_path, capsys):
        code = main(["gradcheck", "--model", str(model_path), "--seed", "1", "--samples", "150"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "max relative error" in out and "PASS" in out

    def test_corrupted_hop_fails(self, model_path, monkeypatch):
        monkeypatch.setattr("interactive.cli.connection_activeness",
                            lambda *args, **kwargs: connection_activeness(*args, **kwargs) * (1.0 + 1e-3))
        code = main(["gradcheck", "--model", str(model_path), "--seed", "1", "--samples", "150"])
        assert code == EXIT_VERIFY

    def test_nothing_compared_fails(self, model_path, monkeypatch, capsys):
        monkeypatch.setattr("interactive.cli.fd_connection_check", lambda *args, **kwargs: None)
        code = main(["gradcheck", "--model", str(model_path), "--seed", "1", "--samples", "20"])
        assert code == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "compared 0, kink-skipped 20" in out and "gradcheck FAIL" in out

    def test_gamma_off_in_one_input_channel_fails(self, tmp_path, monkeypatch, capsys):
        # an error this small passes the finite-difference check; only the
        # per-channel enumeration sees it
        model = tmp_path / "toy.model"
        save_model(generate_model("toy-cnn", seed=3), model)
        def corrupted(*args):
            for t, score, gamma in gamma_stacks(*args):
                gamma[..., 0] += 1e-6
                yield t, score, gamma

        monkeypatch.setattr("interactive.cli.gamma_stacks", corrupted)
        code = main(["gradcheck", "--model", str(model), "--seed", "1", "--samples", "50"])
        assert code == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "enumeration|:          1.000e-06" in out and "gradcheck FAIL" in out

    def test_samples_above_cap_exits_2(self, model_path, monkeypatch, capsys):
        monkeypatch.setattr("interactive.cli.cmd_gradcheck", lambda args: pytest.fail("gradcheck ran"))
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--model", str(model_path), "--samples", str(MAX_SAMPLES + 1)])
        assert exc.value.code == EXIT_USAGE
        assert f"at most {MAX_SAMPLES}" in capsys.readouterr().err

    def test_zero_samples_exits_2(self, model_path):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--model", str(model_path), "--samples", "0"])
        assert exc.value.code == EXIT_USAGE

    def test_deterministic_stdout(self, model_path, capsys):
        main(["gradcheck", "--model", str(model_path), "--seed", "4", "--samples", "60"])
        first = capsys.readouterr().out
        main(["gradcheck", "--model", str(model_path), "--seed", "4", "--samples", "60"])
        assert capsys.readouterr().out == first


class TestToybench:
    def test_report_schema_and_determinism(self, model_path, tmp_path):
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        js = tmp_path / "r1.json"
        code = main(["toybench", "--model", str(model_path), "--dataset-seed", "0",
                     "--out", str(out1), "--json", str(js)])
        assert code == EXIT_OK
        lines = out1.read_text().splitlines()
        body = lines[2:]
        assert len(body) == 6 * 2  # six configs for each of (input, pool-1)
        doc = json.loads(js.read_text())
        assert len(doc["rows"]) == 12
        main(["toybench", "--model", str(model_path), "--dataset-seed", "0", "--out", str(out2)])
        assert out2.read_bytes() == out1.read_bytes()

    def test_layer_selection(self, model_path, tmp_path):
        out = tmp_path / "r.txt"
        code = main(["toybench", "--model", str(model_path), "--layers", "pool-1",
                     "--out", str(out)])
        assert code == EXIT_OK
        body = out.read_text().splitlines()[2:]
        assert len(body) == 6 and all("pool-1" in line for line in body)

    def test_unknown_layer_exits_2(self, model_path, tmp_path):
        code = main(["toybench", "--model", str(model_path), "--layers", "nope",
                     "--out", str(tmp_path / "r.txt")])
        assert code == EXIT_USAGE


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
