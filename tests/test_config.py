from __future__ import annotations

import pytest

from dlgibbs.config import (
    ModelConfig,
    config_hash,
    parse_config,
    serialize_config,
)
from dlgibbs.errors import MissingKey, ParseError, UnknownKey

MINIMAL_MIX = """
experiment = mix

[model]
kind = zz_chain
n = 3

[run]
beta = 0.5
k_max = 50
"""


def test_minimal_mix_config_is_valid():
    cfg = parse_config(MINIMAL_MIX)
    assert cfg.experiment == "mix"
    assert cfg.model == ModelConfig(kind="zz_chain", n=3, seed=0, couplings="x")
    assert cfg.run == {"beta": 0.5, "k_max": 50}
    assert cfg.weights.kind == "davies_kms"
    assert cfg.output.csv == "mix.csv"
    assert cfg.output.summary == "mix.json"


def test_misspelled_key_names_key_and_line():
    text = MINIMAL_MIX.replace("k_max = 50", "k_mxa = 50")
    with pytest.raises(UnknownKey) as err:
        parse_config(text)
    assert "run.k_mxa" in str(err.value)
    assert "line 10" in str(err.value)


def test_anneal_missing_delta_reports_dotted_key():
    text = """
experiment = anneal

[model]
kind = zz_chain
n = 2

[run]
beta = 1.0
"""
    with pytest.raises(MissingKey) as err:
        parse_config(text)
    assert str(err.value) == "run.delta"


def test_unknown_section_rejected():
    with pytest.raises(UnknownKey) as err:
        parse_config(MINIMAL_MIX + "\n[plots]\nstyle = fancy\n")
    assert "[plots]" in str(err.value)


def test_missing_model_section_rejected_except_for_estimate():
    with pytest.raises(MissingKey) as err:
        parse_config("experiment = mix\n\n[run]\nbeta = 0.5\nk_max = 5\n")
    assert str(err.value) == "model.kind"
    cfg = parse_config(
        "experiment = estimate\n\n[run]\nm_terms = 2\ng = 1\ngap = 0.5\n"
        "sigma_min = 0.1\neps = 0.01\nbeta = 1\nnorm_h = 2\ndelta = 0.1\n"
    )
    assert cfg.model == ModelConfig()
    assert cfg.run["c"] == 1.44
    assert cfg.run["alpha"] == 2.0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("experiment = mix\nno equals sign here\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_config("experiment = mix\n[model\nkind = zz_chain\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_config(MINIMAL_MIX + "\n[output]\ncsv = a.csv\ncsv = b.csv\n")
    assert "duplicate key output.csv" in str(err.value)


def test_value_typing_is_enforced():
    with pytest.raises(ParseError) as err:
        parse_config(MINIMAL_MIX.replace("n = 3", "n = 3.5"))
    assert "model.n" in str(err.value)
    with pytest.raises(ParseError):
        parse_config(MINIMAL_MIX.replace("beta = 0.5", "beta = warm"))
    text = """
experiment = overlap

[model]
kind = zz_chain
n = 2

[run]
beta = 0.5
dbetas = 0.1
"""
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert "bracketed list" in str(err.value)
    with pytest.raises(ParseError):
        parse_config(text.replace("dbetas = 0.1", "dbetas = [0.2, 0.1"))


@pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
def test_non_finite_numbers_are_refused(word):
    with pytest.raises(ParseError, match=rf"^line 9: run\.beta must be a finite number, got {word}$"):
        parse_config(MINIMAL_MIX.replace("beta = 0.5", f"beta = {word}"))
    text = """
experiment = overlap

[model]
kind = zz_chain
n = 2

[run]
beta = 0.5
dbetas = [0.2, WORD]
"""
    with pytest.raises(ParseError, match=rf"^line 10: run\.dbetas must list finite numbers, got {word}$"):
        parse_config(text.replace("WORD", word))


def test_list_values_parse():
    text = """
experiment = overlap

[model]
kind = zz_chain
n = 2

[run]
beta = 0.5
dbetas = [0.2, 0.1, 0.05]
"""
    cfg = parse_config(text)
    assert cfg.run["dbetas"] == [0.2, 0.1, 0.05]


def test_experiment_validation():
    with pytest.raises(ParseError) as err:
        parse_config(MINIMAL_MIX.replace("experiment = mix", "experiment = dance"))
    assert "dance" in str(err.value)
    with pytest.raises(MissingKey) as err:
        parse_config("[model]\nkind = zz_chain\nn = 2\n")
    assert str(err.value) == "experiment"
    with pytest.raises(UnknownKey):
        parse_config("experiment = mix\nextra = 1\n" + MINIMAL_MIX.split("\n", 2)[2])


def test_comments_and_blank_lines_ignored():
    text = """
# full-line comment
experiment = mix   # trailing comment

[model]  # section comment
kind = zz_chain
n = 3

[run]
beta = 0.5
k_max = 50
"""
    cfg = parse_config(text)
    assert cfg.experiment == "mix"
    assert cfg.model.kind == "zz_chain"


def test_serialize_round_trip_is_idempotent():
    cfg = parse_config(MINIMAL_MIX)
    canon = serialize_config(cfg)
    again = parse_config(canon)
    assert again == cfg
    assert serialize_config(again) == canon


def test_round_trip_preserves_float_precision():
    text = MINIMAL_MIX.replace("beta = 0.5", "beta = 0.1234567890123456789")
    cfg = parse_config(text)
    again = parse_config(serialize_config(cfg))
    assert again.run["beta"] == cfg.run["beta"]


def test_config_hash_tracks_content():
    a = parse_config(MINIMAL_MIX)
    b = parse_config(MINIMAL_MIX.replace("beta = 0.5", "beta = 0.75"))
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) == config_hash(parse_config(serialize_config(a)))
    assert len(config_hash(a)) == 12


def test_weights_kind_davies_kms_parses():
    text = MINIMAL_MIX + "\n[weights]\nkind = davies_kms\n"
    cfg = parse_config(text)
    assert cfg.weights.kind == "davies_kms"
    # Spelling out the default does not change the canonical form.
    assert config_hash(cfg) == config_hash(parse_config(MINIMAL_MIX))


@pytest.mark.parametrize("kind", ["paper_f", "custom"])
def test_unusable_weights_kind_exits_2_before_any_model(
    kind, tmp_path, capsys, monkeypatch
):
    import dlgibbs.harness
    from dlgibbs.cli import main

    def no_model(*args, **kwargs):
        raise AssertionError("a model was built for an invalid config")

    monkeypatch.setattr(dlgibbs.harness, "build_model", no_model)
    text = MINIMAL_MIX + f"\n[weights]\nkind = {kind}\n"
    with pytest.raises(ParseError, match=r"^line 13: weights\.kind"):
        parse_config(text)
    cfg_path = tmp_path / "mix.cfg"
    cfg_path.write_text(text)
    assert main(["mix", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "ParseError: line 13" in err
    assert kind in err


def test_weights_kappa_cutoff_is_an_unknown_key(tmp_path, capsys):
    # The coherent part keeps every frequency of L'L, so no cutoff is
    # configurable; the key is rejected like any misspelling.
    from dlgibbs.cli import main

    text = MINIMAL_MIX + "\n[weights]\nkappa_cutoff = 1.0\n"
    with pytest.raises(UnknownKey, match="weights.kappa_cutoff"):
        parse_config(text)
    cfg_path = tmp_path / "mix.cfg"
    cfg_path.write_text(text)
    assert main(["mix", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "UnknownKey" in capsys.readouterr().err
    assert not (tmp_path / "mix.csv").exists()


def test_mix_with_nan_beta_exits_2_and_writes_nothing(tmp_path, capsys):
    from dlgibbs.cli import main

    cfg_path = tmp_path / "mix.cfg"
    cfg_path.write_text(MINIMAL_MIX.replace("beta = 0.5", "beta = nan"))
    assert main(["mix", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "error: ParseError: line 9: run.beta must be a finite number" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mix.cfg"]
