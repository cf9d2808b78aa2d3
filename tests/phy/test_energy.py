"""Unit tests for the radio energy model."""

import pytest

from repro.phy.energy import DEFAULT_CURRENT_MA, EnergyModel, RadioState


class TestEnergyModel:
    def test_accumulate_and_read_back(self):
        model = EnergyModel()
        model.accumulate(RadioState.TX, 10.0)
        model.accumulate(RadioState.TX, 5.0)
        assert model.seconds_in(RadioState.TX) == 15.0

    def test_charge_for_known_duration(self):
        model = EnergyModel()
        model.accumulate(RadioState.RX, 3600.0)
        assert model.charge_mah() == pytest.approx(DEFAULT_CURRENT_MA[RadioState.RX])

    def test_energy_joules_for_known_duration(self):
        model = EnergyModel(supply_voltage_v=3.3)
        model.accumulate(RadioState.TX, 10.0)
        expected = (DEFAULT_CURRENT_MA[RadioState.TX] / 1000.0) * 3.3 * 10.0
        assert model.energy_joules() == pytest.approx(expected)

    def test_tx_costs_more_than_rx_costs_more_than_sleep(self):
        results = {}
        for state in (RadioState.TX, RadioState.RX, RadioState.SLEEP):
            model = EnergyModel()
            model.accumulate(state, 100.0)
            results[state] = model.energy_joules()
        assert results[RadioState.TX] > results[RadioState.RX] > results[RadioState.SLEEP]

    def test_reset_zeroes_accumulated_time(self):
        model = EnergyModel()
        model.accumulate(RadioState.RX, 50.0)
        model.reset()
        assert model.energy_joules() == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel().accumulate(RadioState.TX, -1.0)

    def test_invalid_voltage_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(supply_voltage_v=0.0)

    def test_unknown_state_defaults_populated(self):
        model = EnergyModel(current_ma={RadioState.TX: 50.0})
        assert model.current_ma[RadioState.RX] == DEFAULT_CURRENT_MA[RadioState.RX]


class TestRadioStateKeys:
    def test_hash_is_the_identity_hash(self):
        # Members are singletons, so the identity hash agrees with equality.
        assert RadioState.__hash__ is object.__hash__
        assert RadioState("tx") is RadioState.TX
        assert {RadioState.TX: 1.0}[RadioState("tx")] == 1.0

    def test_energy_sums_the_books_in_state_order(self):
        model = EnergyModel()
        for state, seconds in zip(RadioState, (7.0, 0.3, 11.0, 0.25)):
            model.accumulate(state, seconds)
        assert list(model._seconds) == list(RadioState)
        expected = 0.0
        for state in RadioState:
            expected += (
                (model.current_ma[state] / 1000.0)
                * model.supply_voltage_v
                * model.seconds_in(state)
            )
        assert model.energy_joules() == expected
