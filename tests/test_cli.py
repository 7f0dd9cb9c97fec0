"""End-to-end command-line behavior, run in process through main()."""

import json

import pytest

from mixcat import Clustering, classify_document, load_model
from mixcat.cli import main


@pytest.fixture
def sports_file(tmp_path, sports_text):
    path = tmp_path / "sports.txt"
    path.write_text(sports_text, encoding="utf-8")
    return path


def _config_line(path):
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# config "):
            return json.loads(line[len("# config "):])
    raise AssertionError(f"no config header in {path}")


class TestTrain:
    def test_mixture_model_round_trip(self, tmp_path, sports_file):
        model_path = tmp_path / "c1.json"
        code = main([
            "train", "--train", str(sports_file), "--model", str(model_path),
            "--method", "fmm", "--category", "c1", "--gamma", "0.4",
        ])
        assert code == 0
        header = _config_line(model_path)
        assert header["method"] == "fmm"
        assert header["gamma"] == 0.4
        model = load_model(model_path)
        assert model.category == "c1"
        assert model.positive_theta == pytest.approx(
            (0.8715487853846612, 0.1284512146153389), rel=1e-12
        )

    def test_hard_cluster_model_with_low_gamma_fails_fast(
        self, tmp_path, sports_file, capsys
    ):
        code = main([
            "train", "--train", str(sports_file),
            "--model", str(tmp_path / "m.json"),
            "--method", "hcm", "--category", "c1", "--gamma", "0.4",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error while validating the configuration" in err
        assert "gamma" in err
        assert not (tmp_path / "m.json").exists()

    def test_reruns_are_byte_identical(self, tmp_path, sports_file):
        model_path = tmp_path / "m.json"
        args = [
            "train", "--train", str(sports_file), "--model", str(model_path),
            "--method", "fmm", "--category", "c1", "--gamma", "0.4",
        ]
        assert main(args) == 0
        first = model_path.read_bytes()
        assert main(args) == 0
        assert model_path.read_bytes() == first

    def test_trace_file(self, tmp_path, sports_file):
        trace_path = tmp_path / "trace.csv"
        code = main([
            "train", "--train", str(sports_file),
            "--model", str(tmp_path / "m.json"),
            "--method", "fmm", "--category", "c1", "--gamma", "0.4",
            "--trace", str(trace_path),
        ])
        assert code == 0
        lines = trace_path.read_text(encoding="utf-8").splitlines()
        body = [line for line in lines if not line.startswith("#")]
        assert body[0] == "side,evaluation,log_likelihood"
        sides = {row.split(",")[0] for row in body[1:]}
        assert sides == {"positive", "negative"}
        values = [float(row.split(",")[2]) for row in body[1:]]
        assert all(v < 0 for v in values)

    def test_trace_needs_the_mixture_method(self, tmp_path, sports_file, capsys):
        code = main([
            "train", "--train", str(sports_file),
            "--model", str(tmp_path / "m.json"),
            "--method", "wbm", "--category", "c1",
            "--trace", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        assert "--method fmm" in capsys.readouterr().err

    def test_missing_category_flag(self, sports_file, tmp_path, capsys):
        code = main([
            "train", "--train", str(sports_file),
            "--model", str(tmp_path / "m.json"), "--method", "wbm",
        ])
        assert code == 1
        assert "train needs --category" in capsys.readouterr().err

    def test_unknown_category_in_corpus(self, sports_file, tmp_path, capsys):
        code = main([
            "train", "--train", str(sports_file),
            "--model", str(tmp_path / "m.json"),
            "--method", "wbm", "--category", "c7",
        ])
        assert code == 1
        assert "error while training the model" in capsys.readouterr().err

    def test_clustering_flags_refused_for_word_model(
        self, sports_file, tmp_path, capsys
    ):
        code = main([
            "train", "--train", str(sports_file),
            "--model", str(tmp_path / "m.json"),
            "--method", "wbm", "--category", "c1", "--gamma", "0.6",
        ])
        assert code == 1
        assert "do not apply" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gamma", "1.0"], "gamma must be in [0, 1), got 1.0"),
            (["--gamma", "1.5"], "gamma must be in [0, 1), got 1.5"),
            (["--top-l", "0", "--top-m", "3"], "rank cutoffs must be at least 1"),
            (["--top-l", "3", "--top-m", "-1"], "rank cutoffs must be at least 1"),
        ],
    )
    def test_hcm_scheme_ranges_are_validated(
        self, tmp_path, sports_file, capsys, command, flags, message
    ):
        if command == "train":
            where = ["--model", str(tmp_path / "m.json"), "--category", "c1"]
        else:
            where = ["--test", str(sports_file)]
        code = main([
            command, "--train", str(sports_file), *where, "--method", "hcm", *flags,
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"mixcat: error while validating the configuration: {message}\n"
        )
        assert not (tmp_path / "m.json").exists()


class TestClassify:
    def _train(self, tmp_path, sports_file, category):
        model_path = tmp_path / f"{category}.json"
        assert main([
            "train", "--train", str(sports_file), "--model", str(model_path),
            "--method", "fmm", "--category", category, "--gamma", "0.4",
        ]) == 0
        return model_path

    def test_decisions_against_both_categories(self, tmp_path, sports_file):
        input_path = tmp_path / "docs.txt"
        input_path.write_text("\tkick goal goal ball\n", encoding="utf-8")
        for category, expected in (("c1", "negative"), ("c2", "positive")):
            model_path = self._train(tmp_path, sports_file, category)
            out_path = tmp_path / f"out-{category}.tsv"
            code = main([
                "classify", "--model", str(model_path),
                "--input", str(input_path), "--output", str(out_path),
            ])
            assert code == 0
            rows = [
                line for line in out_path.read_text(encoding="utf-8").splitlines()
                if not line.startswith("#")
            ]
            number, outcome, score = rows[0].split("\t")
            assert (number, outcome) == ("1", expected)
            float(score)  # a parseable normalized log ratio

    @pytest.mark.parametrize("method", [
        ["wbm"], ["hcm", "--gamma", "0.5"], ["fmm", "--gamma", "0.4"], ["cos"],
    ])
    def test_lines_match_classify_document(self, tmp_path, sports_file, method):
        model_path = tmp_path / "m.json"
        assert main([
            "train", "--train", str(sports_file), "--model", str(model_path),
            "--category", "c1", "--method", *method,
        ]) == 0
        input_path = tmp_path / "docs.txt"
        documents = [
            "racket ball ball", "", "comet nebula", "goal kick comet", "ball",
            "shot stroke racket goal kick ball",
        ]
        input_path.write_text(
            "".join(f"\t{doc}\n" for doc in documents), encoding="utf-8"
        )
        out_path = tmp_path / "out.tsv"
        assert main([
            "classify", "--model", str(model_path), "--input", str(input_path),
            "--output", str(out_path), "--epsilon", "0.05",
        ]) == 0
        rows = [
            line for line in out_path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")
        ]
        model = load_model(model_path)
        expected = []
        for number, doc in enumerate(documents, start=1):
            decision = classify_document(model, doc.split(), 0.05)
            score = "NA" if decision.score is None else repr(decision.score)
            expected.append(f"{number}\t{decision.outcome}\t{score}")
        assert rows == expected

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "1e400"])
    def test_non_finite_epsilon_flag_rejected(
        self, tmp_path, sports_file, capsys, epsilon
    ):
        model_path = self._train(tmp_path, sports_file, "c1")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main([
                "classify", "--model", str(model_path),
                "--input", str(sports_file), "--epsilon", epsilon,
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --epsilon: invalid float value: '{epsilon}'" in err

    def test_documents_without_evidence_get_na(self, tmp_path, sports_file, capsys):
        model_path = self._train(tmp_path, sports_file, "c1")
        input_path = tmp_path / "docs.txt"
        input_path.write_text("\tcomet nebula\n", encoding="utf-8")
        code = main(["classify", "--model", str(model_path), "--input", str(input_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1\tunclassified\tNA" in out

    def test_epsilon_widens_the_rejection_band(self, tmp_path, sports_file):
        model_path = self._train(tmp_path, sports_file, "c1")
        input_path = tmp_path / "docs.txt"
        # "ball" splits almost evenly, so its score sits near zero
        input_path.write_text("\tball\n", encoding="utf-8")
        outcomes = {}
        for epsilon in ("0.0", "0.2"):
            out_path = tmp_path / f"e{epsilon}.tsv"
            assert main([
                "classify", "--model", str(model_path), "--input", str(input_path),
                "--output", str(out_path), "--epsilon", epsilon,
            ]) == 0
            rows = [
                line for line in out_path.read_text(encoding="utf-8").splitlines()
                if not line.startswith("#")
            ]
            outcomes[epsilon] = rows[0].split("\t")[1]
        assert outcomes["0.0"] == "negative"
        assert outcomes["0.2"] == "unclassified"

    def test_negative_epsilon_rejected(self, tmp_path, sports_file, capsys):
        model_path = self._train(tmp_path, sports_file, "c1")
        code = main([
            "classify", "--model", str(model_path),
            "--input", str(sports_file), "--epsilon", "-0.5",
        ])
        assert code == 1
        assert "nonnegative" in capsys.readouterr().err

    def test_malformed_model_is_reported_without_traceback(
        self, tmp_path, sports_file, capsys
    ):
        model_path = tmp_path / "c1.json"
        assert main([
            "train", "--train", str(sports_file), "--model", str(model_path),
            "--method", "hcm", "--category", "c1", "--gamma", "0.5",
        ]) == 0
        lines = model_path.read_text(encoding="utf-8").splitlines()
        payload = json.loads("\n".join(x for x in lines if not x.startswith("#")))
        payload["positive"] = payload["positive"][:-1]  # one cluster short
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        code = main(["classify", "--model", str(model_path), "--input", str(sports_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("mixcat: error while loading the model: ")
        assert "'positive'" in err
        assert "Traceback" not in err

    def test_missing_model_flag(self, sports_file, capsys):
        code = main(["classify", "--input", str(sports_file)])
        assert code == 1
        assert "classify needs --model" in capsys.readouterr().err


class TestEval:
    def test_self_evaluation_is_perfect(self, tmp_path, sports_file, capsys):
        out_path = tmp_path / "curve.csv"
        code = main([
            "eval", "--train", str(sports_file), "--test", str(sports_file),
            "--method", "wbm", "--output", str(out_path),
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "break_even=1.0"
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert "# break_even_kind exact" in lines
        assert "# labels_without_model 0" in lines
        body = [line for line in lines if not line.startswith("#")]
        assert body[0] == "epsilon,precision,recall"
        assert len(body) == 1 + 101
        assert body[1] == "0.0,1.0,1.0"

    def test_labels_without_a_model_are_counted(self, tmp_path, sports_file, capsys):
        test_path = tmp_path / "test.txt"
        # c3 and c4 never occur in training, so no model covers them
        test_path.write_text(
            "c1,c3\tracket shot\nc4\tgoal kick\nc2\tgoal\n", encoding="utf-8"
        )
        out_path = tmp_path / "curve.csv"
        code = main([
            "eval", "--train", str(sports_file), "--test", str(test_path),
            "--method", "wbm", "--output", str(out_path),
        ])
        assert code == 0
        capsys.readouterr()
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert "# labels_without_model 2" in lines
        # recall still counts only the pairs that have a model
        first = lines[lines.index("epsilon,precision,recall") + 1]
        assert first.split(",")[2] == "1.0"

    def test_reruns_are_byte_identical(self, tmp_path, sports_file, capsys):
        path = tmp_path / "curve.csv"
        args = [
            "eval", "--train", str(sports_file), "--test", str(sports_file),
            "--method", "fmm", "--gamma", "0.4", "--output", str(path),
        ]
        outputs = []
        stdouts = []
        for _ in range(2):
            assert main(args) == 0
            outputs.append(path.read_bytes())
            stdouts.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert stdouts[0] == stdouts[1]

    def test_grid_flags(self, tmp_path, sports_file, capsys):
        out_path = tmp_path / "curve.csv"
        code = main([
            "eval", "--train", str(sports_file), "--test", str(sports_file),
            "--method", "wbm", "--output", str(out_path),
            "--eps-max", "0.1", "--eps-step", "0.05",
        ])
        assert code == 0
        capsys.readouterr()
        body = [
            line for line in out_path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")
        ]
        assert len(body) == 1 + 3  # header plus 0.0, 0.05, 0.1

    @pytest.mark.parametrize("flag, value", [
        ("--eps-max", "1e400"), ("--eps-step", "nan"), ("--iters", "2.7"),
    ])
    def test_malformed_flags_rejected(self, sports_file, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "eval", "--train", str(sports_file), "--test", str(sports_file),
                "--method", "wbm", flag, value,
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid" in err
        assert "Traceback" not in err

    def test_empty_test_corpus_rejected(self, tmp_path, sports_file, capsys):
        test_path = tmp_path / "empty.txt"
        test_path.write_text("", encoding="utf-8")
        code = main([
            "eval", "--train", str(sports_file), "--test", str(test_path),
            "--method", "wbm",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "mixcat: error while evaluating: no test documents to evaluate\n"
        )

    @pytest.mark.parametrize("eps_max, eps_step", [("1e300", "1e-300"), ("1e15", "0.005")])
    def test_oversized_grid_refused(self, sports_file, capsys, eps_max, eps_step):
        code = main([
            "eval", "--train", str(sports_file), "--test", str(sports_file),
            "--method", "wbm", "--eps-max", eps_max, "--eps-step", eps_step,
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "mixcat: error while validating the configuration: "
        )
        assert "over 10**6 points" in captured.err

    def test_category_flag_refused(self, sports_file, capsys):
        code = main([
            "eval", "--train", str(sports_file), "--test", str(sports_file),
            "--method", "wbm", "--category", "c1",
        ])
        assert code == 1
        assert "does not apply" in capsys.readouterr().err


class TestClusters:
    def test_binary_mode(self, tmp_path, sports_file):
        out_path = tmp_path / "clusters.txt"
        code = main([
            "clusters", "--train", str(sports_file), "--category", "c1",
            "--gamma", "0.5", "--output", str(out_path),
        ])
        assert code == 0
        body = [
            line for line in out_path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")
        ]
        assert body == [
            "k1 (c1): racket, stroke, shot",
            "k2 (~c1): goal, kick",
            "discarded: ball",
        ]

    def test_discarded_words_are_listed_in_one_pass(self, sports_file, monkeypatch, capsys):
        """The discarded line costs O(V): the derived set is built at most once."""
        accesses = []
        derived = Clustering.discarded

        def counted(clustering):
            accesses.append(clustering)
            return derived.fget(clustering)

        monkeypatch.setattr(Clustering, "discarded", property(counted))
        code = main(["clusters", "--train", str(sports_file), "--gamma", "0.5"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "discarded: ball"
        assert len(accesses) <= 1

    def test_rank_scheme_has_no_related_labels(self, tmp_path, sports_file, capsys):
        code = main([
            "clusters", "--train", str(sports_file), "--category", "c1",
            "--top-l", "5", "--top-m", "5",
        ])
        assert code == 0
        body = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")
        ]
        assert body == [
            "k1: racket, stroke, shot",
            "k2: kick",
            "k3: ball, goal",
            "discarded: ",
        ]

    def test_all_categories_mode(self, sports_file, capsys):
        code = main(["clusters", "--train", str(sports_file), "--gamma", "0.5"])
        assert code == 0
        body = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")
        ]
        assert body == [
            "k1 (c1): racket, stroke, shot",
            "k2 (c2): goal, kick",
            "discarded: ball",
        ]

    def test_both_rule_needs_a_category(self, tmp_path, capsys):
        path = tmp_path / "multi.txt"
        path.write_text(
            "c1\tracket shot\nc1,c2\tball goal\nc2\tgoal kick\n", encoding="utf-8"
        )
        args = ["clusters", "--train", str(path), "--gamma", "0.3", "--multilabel"]
        assert main([*args, "both"]) == 1
        assert capsys.readouterr().err == (
            "mixcat: error while validating the configuration: "
            "--multilabel both applies only with --category\n"
        )
        assert main([*args, "positive"]) == 0
        body = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")
        ]
        # the c1,c2 document counts in both rows, as the both rule would count it
        assert body == [
            "k1 (c1): racket, shot, ball, goal",
            "k2 (c2): ball, goal, kick",
            "discarded: ",
        ]

    @pytest.mark.parametrize("category", [[], ["--category", "c1"]])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gamma", "1.0"], "gamma must be in [0, 1), got 1.0"),
            (["--gamma", "-0.1"], "gamma must be in [0, 1), got -0.1"),
            (["--top-l", "0", "--top-m", "3"], "rank cutoffs must be at least 1"),
            (["--top-l", "3", "--top-m", "0"], "rank cutoffs must be at least 1"),
        ],
    )
    def test_scheme_ranges_are_validated(
        self, sports_file, capsys, category, flags, message
    ):
        code = main(["clusters", "--train", str(sports_file), *category, *flags])
        assert code == 1
        assert capsys.readouterr().err == (
            f"mixcat: error while validating the configuration: {message}\n"
        )

    def test_scheme_is_mandatory(self, sports_file, capsys):
        code = main(["clusters", "--train", str(sports_file)])
        assert code == 1
        assert "exactly one scheme" in capsys.readouterr().err

    def test_empty_complement_is_shown_but_not_trained(self, tmp_path, capsys):
        path = tmp_path / "only_c1.txt"
        path.write_text("c1\tracket shot\nc1\tshot ball\n", encoding="utf-8")
        code = main([
            "clusters", "--train", str(path), "--category", "c1", "--gamma", "0.5",
        ])
        assert code == 0
        body = [
            line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")
        ]
        assert body == ["k1 (c1): racket, shot, ball", "k2 (~c1): ", "discarded: "]
        code = main([
            "train", "--train", str(path), "--category", "c1", "--method", "wbm",
            "--model", str(tmp_path / "m.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "mixcat: error while training the model: "
            "the complement of category 'c1' has no training tokens\n"
        )


class TestCounts:
    def test_table_dump(self, sports_file, capsys):
        code = main(["counts", "--train", str(sports_file)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# mixcat counts"
        body = [line for line in lines if not line.startswith("#")]
        assert body[0] == "category,word,count"
        assert "c1,racket,4" in body
        assert "c1,kick,0" in body
        assert "c2,goal,3" in body
        # every (category, word) pair appears exactly once
        assert len(body) == 1 + 2 * 6


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(
        self, tmp_path, sports_file
    ):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(
            json.dumps({"method": "fmm", "gamma": 0.4, "iters": 2}),
            encoding="utf-8",
        )
        model_path = tmp_path / "m.json"
        code = main([
            "train", "--train", str(sports_file), "--model", str(model_path),
            "--category", "c1", "--config", str(config_path), "--iters", "50",
        ])
        assert code == 0
        header = _config_line(model_path)
        assert header["method"] == "fmm"  # from the file
        assert header["gamma"] == 0.4  # from the file
        assert header["iters"] == 50  # flag wins over the file

    def test_environment_config_applies(self, tmp_path, sports_file, monkeypatch):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"gamma": 0.5}), encoding="utf-8")
        monkeypatch.setenv("MIXCAT_CONFIG", str(config_path))
        model_path = tmp_path / "m.json"
        assert main([
            "train", "--train", str(sports_file), "--model", str(model_path),
            "--method", "hcm", "--category", "c1",
        ]) == 0
        assert _config_line(model_path)["gamma"] == 0.5

    def test_config_flag_beats_the_environment(
        self, tmp_path, sports_file, monkeypatch
    ):
        env_config = tmp_path / "env.json"
        env_config.write_text(json.dumps({"gamma": 0.5}), encoding="utf-8")
        flag_config = tmp_path / "flag.json"
        flag_config.write_text(json.dumps({"gamma": 0.7}), encoding="utf-8")
        monkeypatch.setenv("MIXCAT_CONFIG", str(env_config))
        model_path = tmp_path / "m.json"
        assert main([
            "train", "--train", str(sports_file), "--model", str(model_path),
            "--method", "hcm", "--category", "c1",
            "--config", str(flag_config),
        ]) == 0
        assert _config_line(model_path)["gamma"] == 0.7

    def test_unknown_keys_rejected(self, tmp_path, sports_file, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"mystery": 1}), encoding="utf-8")
        code = main([
            "train", "--train", str(sports_file),
            "--model", str(tmp_path / "m.json"),
            "--method", "wbm", "--category", "c1",
            "--config", str(config_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown config keys" in err
        assert "mystery" in err

    @pytest.mark.parametrize("text, key", [
        ('{"gamma": [0.4]}', "gamma"),
        ('{"gamma": {"value": 0.4}}', "gamma"),
        ('{"gamma": "0.4"}', "gamma"),
        ('{"gamma": NaN}', "gamma"),
        ('{"gamma": 1e400}', "gamma"),
        pytest.param('{"eta": 1' + "0" * 400 + '}', "eta", id="eta-overflows-float"),
        ('{"iters": 2.7}', "iters"),
        ('{"iters": true}', "iters"),
        ('{"iters": "5"}', "iters"),
        ('{"method": 3}', "method"),
        ('{"method": false}', "method"),
    ])
    def test_malformed_values_rejected(self, tmp_path, sports_file, capsys, text, key):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(text, encoding="utf-8")
        model_path = tmp_path / "m.json"
        code = main([
            "train", "--train", str(sports_file), "--model", str(model_path),
            "--category", "c1", "--method", "fmm", "--gamma", "0.4",
            "--config", str(config_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mixcat: error while reading the config file: {key}: ")
        assert "Traceback" not in err
        assert not model_path.exists()

    def test_null_means_not_given(self, tmp_path, sports_file):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(
            json.dumps({"gamma": None, "iters": None, "eta": 0.5}), encoding="utf-8"
        )
        model_path = tmp_path / "m.json"
        assert main([
            "train", "--train", str(sports_file), "--model", str(model_path),
            "--category", "c1", "--method", "fmm", "--gamma", "0.4",
            "--config", str(config_path),
        ]) == 0
        header = _config_line(model_path)
        assert (header["gamma"], header["iters"], header["eta"]) == (0.4, 100, 0.5)

    def test_config_file_alone_can_drive_classification(
        self, tmp_path, sports_file, capsys
    ):
        model_path = tmp_path / "m.json"
        assert main([
            "train", "--train", str(sports_file), "--model", str(model_path),
            "--method", "wbm", "--category", "c1",
        ]) == 0
        config_path = tmp_path / "cfg.json"
        config_path.write_text(
            json.dumps({
                "model": str(model_path),
                "input": str(sports_file),
                "epsilon": 0.05,
            }),
            encoding="utf-8",
        )
        code = main(["classify", "--config", str(config_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert '"epsilon": 0.05' in out
        assert out.count("\n") >= 5  # header plus one line per document


def _below_config(text):
    """The lines after the ``# config`` header, which names the paths."""
    lines = text.splitlines()
    return lines[[line.startswith("# config ") for line in lines].index(True) + 1:]


class TestByteOrderMark:
    """A UTF-8 BOM at the start of a corpus file is not part of a label."""

    @pytest.fixture
    def files(self, tmp_path, sports_text):
        paths = {}
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(prefix + sports_text, encoding="utf-8")
            paths[f"{name}-input"] = tmp_path / f"{name}-input.txt"
            paths[f"{name}-input"].write_text(
                prefix + "\tkick goal goal ball\n\tracket ball\n", encoding="utf-8"
            )
        assert paths["bom"].read_bytes()[:3] == b"\xef\xbb\xbf"
        return paths

    def test_counts_ignore_the_mark(self, files, capsys):
        outputs = {}
        for name in ("plain", "bom"):
            assert main(["counts", "--train", str(files[name])]) == 0
            outputs[name] = _below_config(capsys.readouterr().out)
        assert outputs["bom"] == outputs["plain"]
        assert not any("\ufeff" in line for line in outputs["bom"])

    @pytest.mark.parametrize("method", [["wbm"], ["fmm", "--gamma", "0.4"]])
    def test_train_and_classify_ignore_the_mark(self, tmp_path, files, method):
        models, decisions = {}, {}
        for name in ("plain", "bom"):
            model_path = tmp_path / f"{name}.json"
            out_path = tmp_path / f"{name}.tsv"
            assert main([
                "train", "--train", str(files[name]), "--model", str(model_path),
                "--category", "c1", "--method", *method,
            ]) == 0
            assert main([
                "classify", "--model", str(model_path),
                "--input", str(files[f"{name}-input"]), "--output", str(out_path),
            ]) == 0
            models[name] = _below_config(model_path.read_text(encoding="utf-8"))
            decisions[name] = _below_config(out_path.read_text(encoding="utf-8"))
        assert models["bom"] == models["plain"]
        assert decisions["bom"] == decisions["plain"]
        assert len(decisions["plain"]) == 2
