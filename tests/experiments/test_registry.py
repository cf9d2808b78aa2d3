"""Registry invariants: presets are valid and the generated docs are current."""

from pathlib import Path

import pytest

from repro.engine import EngineConfig
from repro.experiments.figures import BENCHMARK_SCALE, CAMPAIGN_SCALE, SMOKE_SCALE
from repro.experiments.registry import (
    SCALE_PRESETS,
    apply_overrides,
    get_preset,
    get_sweep,
    iter_presets,
    iter_sweeps,
    preset_names,
    render_scenarios_markdown,
    resolve_scale,
    resolve_scenario,
    sweep_names,
)
from repro.experiments.parallel import config_digest
from repro.experiments.scenario import build_scenario
from repro.mac.device_classes import DeviceClass
from repro.routing import scheme_names

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every preset's digest under the previous rule (which also digested any
#: non-default engine section), taken with the engine section reset to its
#: default.  The engine is never digested now, so each preset must still
#: hash to exactly this value.
PRESET_DIGESTS = {
    "dense-gateways": "58a0e4f839e9d6937ba41c2e2726de8412f53c84b758f970fa21488887501206",
    "epidemic-urban": "053d0f7a3e797e2c5331125adc73bb6bd695868e44ae2e953c7888fd3a1ff53a",
    "mega-fleet": "5ab88e9ec77d7eab7add6de9f089967fac581b426d7f2a22249008a9da1978d1",
    "megacity-10k": "7c87fa85e349cd7a8763d8d78ac073d5f8eaad5e8b908d51894ad4293c889d16",
    "quickstart": "84e783aac68387821d5afa9357f61048c9adec48090fc1d1fc6b117331a8e6c1",
    "rural": "094417b0973dbab7f9abdd2ea9a67d9ee070ad5a710d84f07853080b592af50e",
    "rural-full": "e9e69c296db1fbefa5083d4539373d828636f78f55f5ed179f3f1e9ea53f62ed",
    "rural-smoke": "41767ee01d0a9ce0a34e1e2efbc2ce4edf2d19be47f04b1a2744000e8ec21ee2",
    "sparse-gateways": "bcb805ab14148c40c575618078d1fcfe968d0ec9ed9d0ad1b26a36cae0f70850",
    "spray-and-wait-urban": "ace3e7a590fc8e9b003ca4acee90d802ad383e3b5be59598098ba092de118e09",
    "urban": "df1af1e3c5b272f04e810ac0ae1d3dc410beae790b8084a2257adf05fe327d44",
    "urban-buffer-pressure": "f480148aa78eb0844cf4c552fb97db46b3cb3f3d5904b2899c8eab6e86db985f",
    "urban-class-a": "30c1237edc1c2461762e89006573ad4f6e28de4ed5e14d083bd60d876c95bc3d",
    "urban-full": "d6d56080154cf87c1f8934bffab26203fd02fdc131c35fb71b5b7b239dc3f4b5",
    "urban-manhattan": "4497eb0098a91e0d109a375d2248e05ed8d62c0fd1cdce7d8592b50474058a7c",
    "urban-multisf": "1076cfc638cd8e244813f0399a4a0a0bad7a4143941983563c8438c15f930d6d",
    "urban-prophet": "fc9c76b8a5908a250927a8871c271c01e6a30904d50c1141f32e762683b1c2ca",
    "urban-random-placement": "7c5596cb6e6a97c8d57fa23861623746306849fbb1377bcbefeaa7a502707d53",
    "urban-rwp": "7d0c299df2f64fdc4692ba0ad08a3190c118dc4cb5e65562b2e833b4fc898b6a",
    "urban-smoke": "8bcfec0f40ee69d06a3fce4e434b171cc8dddb1920e47d3241e233ce163060c9",
}

#: Presets pinned to a non-default engine: the only ones whose digest moved
#: when the engine section left the digest.
ENGINE_PINNED_PRESETS = {"megacity-10k"}


class TestPresets:
    def test_catalogue_covers_paper_settings(self):
        names = preset_names()
        for required in (
            "urban", "rural", "urban-full", "rural-full",
            "urban-class-a", "urban-random-placement",
            "urban-smoke", "rural-smoke", "quickstart",
        ):
            assert required in names

    def test_preset_configs_are_well_formed(self):
        for preset in iter_presets():
            config = preset.config
            assert config.name == preset.name
            assert preset.description
            assert config.scheme in scheme_names(), preset.name
            # Urban/rural tags match the paper's device-to-device ranges.
            if "urban" in preset.tags:
                assert config.device_range_m == 500.0, preset.name
            if "rural" in preset.tags:
                assert config.device_range_m == 1000.0, preset.name

    def test_urban_and_rural_differ_only_in_range_and_name(self):
        import dataclasses

        urban = get_preset("urban").config
        rural = get_preset("rural").config
        assert urban.device_range_m == 500.0
        assert rural.device_range_m == 1000.0
        aligned = dataclasses.replace(rural, name="urban", device_range_m=500.0)
        assert aligned == urban

    def test_paper_points_match_sweep_spec_configs(self):
        """The urban/rural presets equal the fig9 grid's 70-gateway point.

        `_paper_point` re-derives the scaling that the grid runner applies
        to `ReproductionScale.base_config`; this pins the two code paths to
        each other (everything but the cosmetic scenario name must match).
        """
        import dataclasses

        from repro.experiments.figures import ReproductionScale
        from repro.experiments.registry import grid_points

        scale = ReproductionScale(
            spatial_scale=0.10, duration_s=4 * 3600.0, gateway_counts=(70,)
        )
        by_range = {
            device_range: spec.config
            for (scheme, _, device_range), spec in grid_points(get_sweep("fig9").grid, scale)
            if scheme == "robc"
        }
        for preset_name, device_range in (("urban", 500.0), ("rural", 1000.0)):
            preset_config = get_preset(preset_name).config
            sweep_config = by_range[device_range]
            assert dataclasses.replace(
                preset_config, name=sweep_config.name
            ) == sweep_config, preset_name

    def test_smoke_presets_build_quickly(self):
        # The CI smoke presets must stay cheap: tiny fleet, tiny horizon.
        for name in ("urban-smoke", "rural-smoke"):
            config = get_preset(name).config
            assert config.duration_s <= 3600.0
            assert config.num_routes * config.trips_per_route <= 16
            built = build_scenario(config)
            assert built.num_devices > 0
            assert isinstance(
                built.devices[next(iter(built.devices))].device_class, DeviceClass
            )

    def test_unknown_preset_lists_catalogue(self):
        with pytest.raises(KeyError, match="urban"):
            get_preset("does-not-exist")

    def test_resolve_scenario_prefers_registry_then_files(self, tmp_path):
        from repro.experiments.serialization import save_scenario

        assert resolve_scenario("urban") == get_preset("urban").config
        path = tmp_path / "custom.toml"
        save_scenario(get_preset("rural").config, path)
        assert resolve_scenario(str(path)) == get_preset("rural").config
        # Suffix matching is case-insensitive, like save/load themselves.
        upper = tmp_path / "CUSTOM.TOML"
        save_scenario(get_preset("rural").config, upper)
        assert resolve_scenario(str(upper)) == get_preset("rural").config
        with pytest.raises(KeyError, match="neither"):
            resolve_scenario("not-a-preset")


class TestPresetDigests:
    def test_every_preset_keeps_its_digest(self):
        assert sorted(PRESET_DIGESTS) == preset_names()
        for preset in iter_presets():
            assert config_digest(preset.config) == PRESET_DIGESTS[preset.name], preset.name

    def test_only_engine_pinned_presets_moved(self):
        moved = {
            preset.name for preset in iter_presets()
            if preset.config.engine != EngineConfig()
        }
        assert moved == ENGINE_PINNED_PRESETS


class TestOverrides:
    def test_field_overrides(self):
        base = get_preset("urban").config
        variant = apply_overrides(
            base, scheme="rca-etx", num_gateways=3, seed=99, device_range_m=750.0
        )
        assert (variant.scheme, variant.num_gateways, variant.seed) == ("rca-etx", 3, 99)
        assert variant.device_range_m == 750.0
        # Untouched fields survive.
        assert variant.area_km2 == base.area_km2

    def test_scale_composes_with_field_overrides(self):
        base = get_preset("urban-full").config
        variant = apply_overrides(base, scale=0.5, num_gateways=12)
        assert variant.area_km2 == pytest.approx(base.area_km2 * 0.5)
        assert variant.num_gateways == 12

    def test_no_overrides_is_identity(self):
        base = get_preset("urban").config
        assert apply_overrides(base) is base


class TestSweeps:
    def test_catalogue_covers_figures_and_ablations(self):
        names = sweep_names()
        for required in (
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
            "alpha", "device-class", "placement",
        ):
            assert required in names

    def test_sweep_names_in_paper_order(self):
        names = sweep_names()
        figures = [name for name in names if name.startswith("fig")]
        assert figures == ["fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"]
        # Figures lead the catalogue; ablations follow alphabetically.
        assert names[: len(figures)] == figures
        assert names[len(figures):] == sorted(names[len(figures):])

    def test_zero_padded_figure_names_resolve(self):
        assert get_sweep("fig08") is get_sweep("fig8")
        assert get_sweep("FIG9") is get_sweep("fig9")
        with pytest.raises(KeyError, match="available"):
            get_sweep("fig99")

    def test_every_sweep_has_description_and_runner(self):
        for sweep in iter_sweeps():
            assert sweep.description
            assert callable(sweep.runner)

    def test_resolve_scale(self):
        assert resolve_scale(None) is BENCHMARK_SCALE
        assert resolve_scale("smoke") is SMOKE_SCALE
        assert resolve_scale("campaign") is CAMPAIGN_SCALE
        assert resolve_scale("0.5").spatial_scale == 0.5
        assert resolve_scale(0.25).spatial_scale == 0.25
        with pytest.raises(KeyError, match="unknown scale"):
            resolve_scale("huge")
        for out_of_range in ("1.5", 0.0, "nan", -1):
            with pytest.raises(ValueError, match="spatial scale"):
                resolve_scale(out_of_range)
        assert sorted(SCALE_PRESETS) == ["benchmark", "campaign", "smoke"]


class TestGeneratedDocs:
    def test_scenarios_md_matches_registry(self):
        """docs/scenarios.md is generated; it must not drift from the code.

        Regenerate with: PYTHONPATH=src python -m repro docs --write
        """
        path = REPO_ROOT / "docs" / "scenarios.md"
        assert path.is_file(), "docs/scenarios.md is missing"
        assert path.read_text(encoding="utf-8") == render_scenarios_markdown()

    def test_rendered_catalogue_mentions_every_name(self):
        rendered = render_scenarios_markdown()
        for preset in iter_presets():
            assert f"`{preset.name}`" in rendered
        for sweep in iter_sweeps():
            assert f"`{sweep.name}`" in rendered
