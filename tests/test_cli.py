import json
import logging
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from interactive import (
    ConvLayer,
    NetworkSpec,
    RasterImage,
    connection_activeness,
    enumerate_gamma,
    generate_model,
    read_image,
    save_model,
    write_image,
)
from interactive import cli
from interactive.activeness import gamma_stacks, valid_targets
from interactive.cli import (
    EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, FEATURE_MAGIC, MAX_SAMPLES, _prepare_input, build_parser, main
)
from interactive.evalharness import toy_image
from interactive.image import resample_to, to_input_tensor

# ``activeness`` outputs of a 16x16 toy-cnn (seed 0) on the first toy image,
# keyed "layer/config/p": the f32 feature values and the heatmap rows as hex
FROZEN_ACTIVENESS = json.loads((Path(__file__).parent / "data" / "activeness_toy_cnn_16.json").read_text())
# full ``gradcheck --samples 200`` stdout, keyed "arch/model seed/--seed": the
# toy-cnn and tiny-fc records come from an enumeration oracle that walked once
# per (target, config), the tiny-2conv and tiny-3conv ones from a stacked walk
# that walked every U-set once per input channel; the current walk must
# reproduce every verdict line to the last printed digit
GOLDEN_GRADCHECK = json.loads((Path(__file__).parent / "data" / "gradcheck_golden.json").read_text())


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
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument --arch: invalid choice")
        assert "tiny-2conv" in err[0]

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

    @pytest.mark.parametrize("w, h", [("1", "1"), ("3", "1")])
    def test_input_too_small_for_a_layer_exits_2_naming_it(self, tmp_path, capsys, w, h):
        out = tmp_path / "small.model"
        assert main(["gen-model", "--arch", "tiny-fc", "--input", w, h, "3", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: layer pool-1: pool window 2 exceeds input {w}x{h}\n"
        assert not out.exists()

    def test_log_env_var_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INTERACTIVE_LOG", "debug")
        out = tmp_path / "m.model"
        assert main(["gen-model", "--arch", "tiny-2conv", "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("verbose, level", [([], logging.WARNING), (["-v"], logging.INFO)], ids=["plain", "v"])
    def test_log_env_var_naming_no_level_falls_back_to_warning(self, tmp_path, monkeypatch, verbose, level):
        # logging.BASIC_FORMAT is a format string, not a level: it counts as an unknown name
        monkeypatch.setenv("INTERACTIVE_LOG", "basic_format")
        levels, run = [], cli.cmd_gen_model
        monkeypatch.setattr(cli, "cmd_gen_model", lambda args: levels.append(cli.log.getEffectiveLevel()) or run(args))
        out = tmp_path / "m.model"
        assert main([*verbose, "gen-model", "--arch", "tiny-2conv", "--out", str(out)]) == EXIT_OK
        assert levels == [level]

    def test_each_call_sets_its_own_verbosity(self, monkeypatch, caplog):
        # the root logger keeps its first handler, so the level is set on the package's logger per call
        monkeypatch.delenv("INTERACTIVE_LOG", raising=False)
        monkeypatch.setattr(cli, "cmd_gen_model", lambda args: cli.log.debug("probe") or EXIT_OK)
        argv = ["gen-model", "--arch", "tiny-2conv", "--out", "m"]
        seen = []
        for flags in ([], ["-v"], ["-vv"], []):
            caplog.clear()
            assert main([*flags, *argv]) == EXIT_OK
            seen.append([f"{r.levelname} {r.getMessage().split(' took ')[0]}" for r in caplog.records])
        assert seen == [[], ["INFO gen-model"], ["DEBUG probe", "INFO gen-model"], []]
        assert cli.log.level == logging.NOTSET

    def test_a_call_with_no_setting_leaves_the_level_alone(self, monkeypatch, caplog):
        monkeypatch.delenv("INTERACTIVE_LOG", raising=False)
        monkeypatch.setattr(cli, "cmd_gen_model", lambda args: EXIT_OK)
        caplog.set_level(logging.INFO, logger="interactive")
        assert main(["gen-model", "--arch", "tiny-2conv", "--out", "m"]) == EXIT_OK
        assert [r.getMessage().split(" took ")[0] for r in caplog.records] == ["gen-model"]
        assert cli.log.level == logging.INFO


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

    @pytest.fixture(scope="class")
    def toy_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("frozen")
        save_model(generate_model("toy-cnn", seed=0), tmp / "toy.model")
        write_image(toy_image(0, (16, 16, 3), 0, 0), tmp / "toy.ppm")
        return tmp / "toy.model", tmp / "toy.ppm"

    @pytest.mark.parametrize("key", sorted(FROZEN_ACTIVENESS))
    def test_outputs_match_frozen_record(self, toy_files, tmp_path, key):
        layer, config, p = key.split("/")
        code, hm, feat = self.run(*toy_files, tmp_path, "--layer", layer, "--config", config, "--p", p[1:])
        assert code == EXIT_OK
        want = FROZEN_ACTIVENESS[key]
        np.testing.assert_allclose(np.frombuffer(feat.read_bytes()[16:], dtype="<f4"), want["feature"],
                                   rtol=1e-9, atol=0)
        frozen = np.array([list(bytes.fromhex(row)) for row in want["heatmap"]])
        assert np.abs(read_image(hm).pixels[:, :, 0].astype(int) - frozen).max() <= 1

    def test_bad_norm_exits_2(self, model_path, image_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self.run(model_path, image_path, tmp_path, "--layer", "pool-1", "--p", "3")
        assert exc.value.code == EXIT_USAGE

    def test_unknown_layer_exits_2(self, model_path, image_path, tmp_path, capsys):
        code, _, _ = self.run(model_path, image_path, tmp_path, "--layer", "pool-9")
        assert code == EXIT_USAGE
        assert "pool-9" in capsys.readouterr().err

    def test_unknown_layer_lists_the_names_it_accepts(self, model_path, image_path, tmp_path, capsys):
        # tiny-2conv: "input" is accepted; conv-1 feeds a pool and conv-2 is the final layer
        code, _, _ = self.run(model_path, image_path, tmp_path, "--layer", "pool-9")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: no layer named 'pool-9'; valid: input, pool-1\n"

    def test_pool_successor_exits_2_with_explanation(self, model_path, image_path, tmp_path, capsys):
        code, _, _ = self.run(model_path, image_path, tmp_path, "--layer", "conv-1")
        assert code == EXIT_USAGE
        assert "layer 'conv-1' is followed by pooling layer 'pool-1'" in capsys.readouterr().err

    def test_final_layer_exits_2(self, model_path, image_path, tmp_path, capsys):
        code, _, _ = self.run(model_path, image_path, tmp_path, "--layer", "conv-2")
        assert code == EXIT_USAGE
        assert "layer 'conv-2' is the final layer" in capsys.readouterr().err

    def test_input_of_a_zero_layer_model_is_the_final_layer(self, image_path, tmp_path, capsys):
        model = tmp_path / "empty.model"
        save_model(NetworkSpec(layers=(), input_shape=(8, 8, 3), names=()), model)
        code, _, _ = self.run(model, image_path, tmp_path, "--layer", "input")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: layer 'input' is the final layer; activeness needs a successor conv layer\n"
        )

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

    def test_negative_exponent_mean_parses_with_a_space(self, image_path, tmp_path, capsys):
        model = tmp_path / "toy.model"
        save_model(generate_model("toy-cnn", seed=3), model)
        for mean, message in (("-1e308", "error: layer conv-1: output contains NaN or Inf\n"),
                              ("-inf", "error: tensor data contains NaN or Inf\n"),
                              ("nan", "error: tensor data contains NaN or Inf\n")):
            results = []
            for flag in ([f"--mean={mean}"], ["--mean", mean]):
                code, _, _ = self.run(model, image_path, tmp_path, "--layer", "input", *flag)
                results.append((code, capsys.readouterr().err))
            assert results[0] == results[1] == (EXIT_USAGE, message)

    @pytest.mark.parametrize("w, h", [(5, 400), (100, 37), (222, 226), (300, 500), (224, 224)])
    def test_gray_image_is_resampled_before_its_channel_is_tripled(self, w, h):
        """Resampling treats each channel on its own, so a gray image resampled
        and then tripled is, byte for byte, the tripled image resampled."""
        spec = NetworkSpec(layers=(), input_shape=(224, 224, 3), names=())
        gray = RasterImage(pixels=np.random.default_rng(w * h).integers(0, 256, size=(h, w, 1), dtype=np.uint8))
        tripled = RasterImage(pixels=np.repeat(gray.pixels, 3, axis=2))
        want = to_input_tensor(resample_to(tripled, 224, 224).pixels, [128.0] * 3).array
        got = _prepare_input(gray, spec, 128.0).array
        assert got.shape == want.shape == (224, 224, 3)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("image_channels, net_channels", [(1, 2), (3, 1), (3, 2)])
    def test_channel_mismatch_exits_2_with_one_line(self, tmp_path, capsys, image_channels, net_channels):
        model = tmp_path / "m.model"
        save_model(generate_model("tiny-2conv", seed=7, input_shape=(8, 8, net_channels)), model)
        image = tmp_path / "img.ppm"
        write_image(RasterImage(pixels=np.zeros((10, 12, image_channels), dtype=np.uint8)), image)
        code, _, _ = self.run(model, image, tmp_path, "--layer", "pool-1")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: image has {image_channels} channels but the network expects {net_channels}\n"
        )

    def test_missing_model_exits_3(self, tmp_path, image_path):
        code, _, _ = self.run(tmp_path / "absent.model", image_path, tmp_path, "--layer", "pool-1")
        assert code == EXIT_IO

    def test_no_outputs_requested_exits_2(self, model_path, image_path):
        code = main(["activeness", "--model", str(model_path), "--image", str(image_path),
                     "--layer", "pool-1"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flags", [["--heatmap", "", "--features", "f.bin"], ["--features", ""]],
                             ids=["heatmap", "features"])
    def test_empty_output_path_exits_3_with_one_line(self, model_path, image_path, tmp_path, capsys,
                                                     monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        code = main(["activeness", "--model", str(model_path), "--image", str(image_path),
                     "--layer", "pool-1", *flags])
        assert code == EXIT_IO
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"


class TestGradcheck:
    def test_passes_on_generated_model(self, model_path, capsys):
        code = main(["gradcheck", "--model", str(model_path), "--seed", "1", "--samples", "150"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "max relative error" in out and "PASS" in out

    def test_corrupted_hop_fails(self, model_path, monkeypatch):
        monkeypatch.setattr("interactive.cli.connection_activeness",
                            lambda *args: [value * (1.0 + 1e-3) for value in connection_activeness(*args)])
        code = main(["gradcheck", "--model", str(model_path), "--seed", "1", "--samples", "150"])
        assert code == EXIT_VERIFY

    def test_nothing_compared_fails(self, model_path, monkeypatch, capsys):
        monkeypatch.setattr("interactive.cli.fd_connection_check",
                            lambda spec, trace, request, connections: [None] * len(connections))
        code = main(["gradcheck", "--model", str(model_path), "--seed", "1", "--samples", "20"])
        assert code == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "compared 0, kink-skipped 20" in out and "gradcheck FAIL" in out

    def _gradcheck_with_gamma_shifted(self, tmp_path, monkeypatch, capsys, spread):
        # an error this small passes the finite-difference check; only the
        # per-channel enumeration sees it
        model = tmp_path / "toy.model"
        save_model(generate_model("toy-cnn", seed=3), model)
        def corrupted(spec, acts, targets, configs):
            stacks = gamma_stacks(spec, acts, targets, configs)
            for t, gamma in stacks.items():
                if spread:
                    gamma = np.repeat(gamma, acts[t].shape[-1], axis=-1)
                gamma[..., 0] += 1e-6
                stacks[t] = gamma
            return stacks

        monkeypatch.setattr("interactive.cli.gamma_stacks", corrupted)
        code = main(["gradcheck", "--model", str(model), "--seed", "1", "--samples", "50"])
        assert code == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "enumeration|:          1.000e-06" in out and "gradcheck FAIL" in out

    def test_gamma_off_in_one_input_channel_fails(self, tmp_path, monkeypatch, capsys):
        # gamma is one field broadcast over the input channels: its channel 0 is all of it
        self._gradcheck_with_gamma_shifted(tmp_path, monkeypatch, capsys, spread=False)

    def test_gamma_off_in_input_channel_0_of_d_fails(self, tmp_path, monkeypatch, capsys):
        # spread to the D input channels, then shift channel 0 alone
        self._gradcheck_with_gamma_shifted(tmp_path, monkeypatch, capsys, spread=True)

    def test_enumeration_walks_each_target_once(self, tmp_path, monkeypatch):
        # one literal walk per target serves all four (supervision, p) configs
        spec = generate_model("toy-cnn", seed=0)
        model = tmp_path / "toy.model"
        save_model(spec, model)
        walked = []

        def counted(spec, trace, t, configs):
            walked.append(t)
            return enumerate_gamma(spec, trace, t, configs)

        monkeypatch.setattr("interactive.cli.enumerate_gamma", counted)
        assert main(["gradcheck", "--model", str(model), "--seed", "0", "--samples", "20"]) == EXIT_OK
        assert sorted(walked) == valid_targets(spec)  # one call per target, not one per config

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

    @staticmethod
    def _one_by_one_model(tmp_path, input_shape, stride, padding):
        rng = np.random.default_rng(5)
        layer = ConvLayer(kernel=rng.standard_normal((1, 1, input_shape[2], 2)), bias=np.full(2, 0.1),
                          stride=stride, padding=padding)
        path = tmp_path / "pad.model"
        save_model(NetworkSpec(layers=(layer,), input_shape=input_shape, names=("conv-1",)), path)
        return path

    # a 1x1 conv whose padding holds whole output windows: such an output has
    # no source, so the sampler draws another output position
    @pytest.mark.parametrize("shape, stride, padding", [((6, 6, 3), 1, 1), ((7, 7, 3), 3, 2)],
                             ids=["padding-1", "stride-3-padding-2"])
    def test_output_windows_wholly_in_padding_are_drawn_again(self, tmp_path, capsys, shape, stride, padding):
        model = self._one_by_one_model(tmp_path, shape, stride, padding)
        for seed in ("0", "3"):
            assert main(["gradcheck", "--model", str(model), "--seed", seed]) == EXIT_OK
            out = capsys.readouterr().out
            assert "(compared 200, kink-skipped 0)" in out and "gradcheck PASS" in out

    def test_every_window_in_padding_exits_2_with_one_line(self, tmp_path, capsys):
        # 1x1 input, padding 1, stride 2: both output columns read padding only
        model = self._one_by_one_model(tmp_path, (1, 1, 3), 2, 1)
        assert main(["gradcheck", "--model", str(model), "--seed", "0"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "padding" in err

    @pytest.mark.parametrize("key", sorted(GOLDEN_GRADCHECK))
    def test_stdout_matches_golden_record(self, key, tmp_path, capsys):
        arch, model_seed, seed = key.split("/")
        model = tmp_path / "m.model"
        save_model(generate_model(arch, seed=int(model_seed)), model)
        code = main(["gradcheck", "--model", str(model), "--seed", seed, "--samples", "200"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_GRADCHECK[key]

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

    def test_unknown_layer_lists_the_names_it_accepts(self, model_path, tmp_path, capsys):
        code = main(["toybench", "--model", str(model_path), "--layers", "input,nope",
                     "--out", str(tmp_path / "r.txt")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: no layer named 'nope'; valid: input, pool-1\n"

    @pytest.mark.parametrize("layers, message", [
        ("", "error: no layer named ''"),
        ("input,input", "error: repeated target layers in ['input', 'input']"),
    ], ids=["empty", "repeated"])
    def test_bad_layer_list_exits_2_before_any_forward_pass(self, model_path, tmp_path, capsys, monkeypatch,
                                                             layers, message):
        monkeypatch.setattr("interactive.evalharness.forward",
                            lambda *args: pytest.fail("forward pass ran"))
        out = tmp_path / "r.txt"
        assert main(["toybench", "--model", str(model_path), "--layers", layers, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not out.exists()

    def test_two_channel_model_exits_2_with_one_line(self, tmp_path, capsys):
        model, out = tmp_path / "two.model", tmp_path / "r.txt"
        assert main(["gen-model", "--arch", "tiny-2conv", "--input", "8", "8", "2", "--out", str(model)]) == EXIT_OK
        capsys.readouterr()
        assert main(["toybench", "--model", str(model), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: toy dataset paints 1 or 3 channels; network input is 8x8x2\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--out", ""], ["--out", "r.txt", "--json", ""]], ids=["out", "json"])
    def test_empty_output_path_exits_3_with_one_line(self, model_path, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        assert main(["toybench", "--model", str(model_path), "--layers", "pool-1", *flags]) == EXIT_IO
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"


def test_unknown_flag_exits_2_with_one_line(model_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--model", str(model_path), "--bogus"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err == "error: unrecognized arguments: --bogus\n"


GEN = ["gen-model", "--arch", "tiny-2conv", "--out", "@out"]


@pytest.mark.parametrize("argv, line", [
    (GEN + ["--input", "5", "5", "-1"], "argument --input: must be >= 1, got -1"),
    (GEN + ["--input", "-100000", "-100000", "3"], "argument --input: must be >= 1, got -100000"),
    (GEN + ["--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["toybench", "--model", "@model", "--out", "@out", "--dataset-seed", "-1"],
     "argument --dataset-seed: must be >= 0, got -1"),
    (["gradcheck", "--model", "@model", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    (["gradcheck", "--model", "@model", "--samples", "x"], "argument --samples: must be an integer, got 'x'"),
    (["gradcheck", "--model", "@model", "--samples", "0"], "argument --samples: must be >= 1, got 0"),
], ids=["input-negative", "input-huge-negative", "gen-model-seed", "dataset-seed",
        "gradcheck-seed", "samples-not-an-integer", "samples-zero"])
def test_bad_integer_flag_exits_2_naming_the_flag(model_path, tmp_path, capsys, argv, line):
    out = tmp_path / "x.out"
    paths = {"@model": str(model_path), "@out": str(out)}
    with pytest.raises(SystemExit) as exc:
        main([paths.get(arg, arg) for arg in argv])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


def test_seed_before_the_subcommand_is_a_usage_error(tmp_path, capsys):
    # --seed belongs to gen-model and gradcheck; there is no global one
    out = tmp_path / "x.model"
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "5", "gen-model", "--arch", "tiny-2conv", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "--seed" in err[0]
    assert not out.exists()


def test_negative_exponent_values_parse_as_values(capsys):
    parser = build_parser()
    argv = ["activeness", "--model", "m", "--image", "i", "--layer", "input", "--mean"]
    for text, value in (("-1e308", -1e308), ("-.5e3", -500.0), ("-1", -1.0), ("-inf", -np.inf),
                        ("-Infinity", -np.inf), ("-INF", -np.inf)):
        assert parser.parse_args(argv + [text]).mean == value
    for text in ("-nan", "-NaN"):
        assert np.isnan(parser.parse_args(argv + [text]).mean)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv + ["-infx"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err == "error: argument --mean: expected one argument\n"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_consecutive_main_calls_share_no_state(monkeypatch, capsys):
    # the parser is built once per process; each call must still see only its own flags
    seen = []
    monkeypatch.setattr("interactive.cli._setup_logging", seen.append)
    for name in ("cmd_gen_model", "cmd_gradcheck", "cmd_toybench"):
        monkeypatch.setattr(f"interactive.cli.{name}", lambda args: seen.append(vars(args)) or EXIT_OK)
    gen = {"command": "gen-model", "arch": "tiny-2conv", "input": None, "out": "m"}
    grad = {"command": "gradcheck", "model": "m"}
    bench = {"command": "toybench", "model": "m", "layers": None, "out": "r", "json": None}
    calls = [
        (["-vv", "gen-model", "--arch", "tiny-2conv", "--seed", "5", "--out", "m"], 2, {**gen, "seed": 5}),
        (["gen-model", "--arch", "tiny-2conv", "--out", "m"], 0, {**gen, "seed": 0}),
        (["gradcheck", "--model", "m", "--seed", "3", "--samples", "7"], 0, {**grad, "seed": 3, "samples": 7}),
        (["-v", "gradcheck", "--model", "m"], 1, {**grad, "seed": 0, "samples": 200}),
        (["toybench", "--model", "m", "--dataset-seed", "4", "--out", "r"], 0, {**bench, "dataset_seed": 4}),
        (["toybench", "--model", "m", "--out", "r"], 0, {**bench, "dataset_seed": 0}),
    ]
    for argv, verbose, args in calls:
        seen.clear()
        assert main(argv) == EXIT_OK
        assert seen == [verbose, {"verbose": verbose, **args}], argv

    # a usage error leaves nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        main(["-v", "gradcheck", "--model", "x", "--seed", "9", "--samples", "0"])
    assert exc.value.code == EXIT_USAGE
    assert "--samples" in capsys.readouterr().err
    seen.clear()
    assert main(["gradcheck", "--model", "m"]) == EXIT_OK
    assert seen == [0, {"verbose": 0, **grad, "seed": 0, "samples": 200}]


def test_main_builds_the_parser_once(monkeypatch):
    monkeypatch.setattr("interactive.cli.cmd_gen_model", lambda args: EXIT_OK)
    assert main(["gen-model", "--arch", "tiny-2conv", "--out", "m"]) == EXIT_OK
    monkeypatch.setattr("interactive.cli.build_parser", lambda: pytest.fail("parser rebuilt"))
    assert main(["gen-model", "--arch", "tiny-2conv", "--out", "m"]) == EXIT_OK
