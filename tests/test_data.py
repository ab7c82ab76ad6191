import csv
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uga import data as uga_data
from uga.data import (
    CYCLE_TAGS,
    LabeledSet,
    SyntheticShiftSpec,
    gen_battery_curves,
    gen_cubic_shift,
    ingest_battery_csv,
    make_cubic_shift_pair,
    normalize_labels,
    split_by_cycle,
    read_vector_csv,
    windows_to_set,
    write_battery_csv,
    write_vector_csv,
)
from uga.metrics import METRICS_COLUMNS, read_metrics_csv


def fake_series(n, tag="UDDS", hz=1.0):
    rng = np.random.default_rng(0)
    k = np.arange(n)
    return uga_data._series((k / hz, 3.5 + rng.normal(0, 0.01, size=n),
                             np.ones(n), np.full(n, 25.0), 1.0 - k / max(n, 1)),
                            tag)


def as_tuples(series_list):
    return [series.tolist() for series in series_list]


class TestCubicGenerator:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticShiftSpec(scale=0.0)
        with pytest.raises(ValueError):
            SyntheticShiftSpec(noise_sd=-1.0)
        with pytest.raises(ValueError):
            SyntheticShiftSpec(n=0)

    def test_noiseless_cubic_relation(self):
        ds = gen_cubic_shift(SyntheticShiftSpec(n=500, seed=3))
        x = ds.inputs.ravel()
        np.testing.assert_allclose(ds.labels, x ** 3 / 64.0, rtol=1e-12)
        assert np.all(np.abs(x) <= 4.0)

    def test_seed_determinism(self):
        spec = SyntheticShiftSpec(shift=1.0, noise_sd=0.05, n=200, seed=9)
        a, b = gen_cubic_shift(spec), gen_cubic_shift(spec)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_shift_moves_inputs_not_labels(self):
        src = gen_cubic_shift(SyntheticShiftSpec(n=4000, seed=1))
        tgt = gen_cubic_shift(SyntheticShiftSpec(shift=2.0, n=4000, seed=2))
        assert abs(src.inputs.mean()) < 0.2
        assert abs(tgt.inputs.mean() - 2.0) < 0.2
        # label ranges coincide because labels come from the latent draw
        assert abs(src.labels.min() - tgt.labels.min()) < 0.05
        assert abs(src.labels.max() - tgt.labels.max()) < 0.05

    @pytest.mark.parametrize("field,value", [
        ("shift", float("inf")), ("shift", float("nan")),
        ("scale", float("nan")), ("scale", float("inf")),
        ("noise_sd", float("nan")), ("noise_sd", float("inf")),
    ])
    def test_bad_spec_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticShiftSpec(**{field: value})

    @pytest.mark.parametrize("spec,message", [
        (SyntheticShiftSpec(scale=1e308, n=50), "generated inputs: non-finite value in row "),
        (SyntheticShiftSpec(shift=1.7e308, scale=1e308, n=50), "generated inputs"),
        (SyntheticShiftSpec(noise_sd=1e308, n=50), "generated labels: non-finite value in row "),
    ])
    def test_overflowing_domain_rejected(self, spec, message):
        # Refused with one ValueError, without numpy's overflow warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                gen_cubic_shift(spec)

    def test_overflowing_label_range_rejected(self):
        # Finite labels whose max - min overflows would normalize to nan.
        ds = LabeledSet(np.zeros((2, 1)), [-1e308, 1e308])
        with pytest.raises(ValueError, match="is empty or overflows"):
            normalize_labels(ds)

    def test_pair_normalization(self):
        src, tgt, bounds = make_cubic_shift_pair(
            SyntheticShiftSpec(n=1000, seed=1, noise_sd=0.05),
            SyntheticShiftSpec(shift=2.0, n=1000, seed=2, noise_sd=0.05))
        for ds in (src, tgt):
            assert ds.labels.min() >= 0.0
            assert ds.labels.max() <= 1.0
        assert src.labels.min() == 0.0
        assert src.labels.max() == 1.0
        np.testing.assert_array_equal(bounds.apply([bounds.lo, bounds.hi]),
                                      [0.0, 1.0])


class TestNormalizeLabels:
    def test_min_max_arithmetic(self):
        ds = LabeledSet(np.zeros((3, 1)), [0.0, 50.0, 100.0])
        normalized, bounds = normalize_labels(ds)
        np.testing.assert_array_equal(normalized.labels, [0.0, 0.5, 1.0])
        assert (bounds.lo, bounds.hi) == (0.0, 100.0)

    def test_hidden_labels_same_map(self):
        ds = LabeledSet(np.zeros((2, 1)), [0.0, 10.0])
        _n, bounds = normalize_labels(ds)
        np.testing.assert_array_equal(bounds.apply(np.array([5.0, 20.0])), [0.5, 2.0])

    def test_degenerate_labels_rejected(self):
        ds = LabeledSet(np.zeros((3, 1)), [2.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            normalize_labels(ds)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((3, 1)), [1.0, 2.0])


class TestBatterySimulator:
    # A negative rate or capacity would make soc rise and never reach 0;
    # the loop would not end, so the bounds are checked before it starts.
    @pytest.mark.parametrize("field,value", [
        ("hz", 0.0), ("hz", -10.0), ("hz", float("nan")), ("hz", float("inf")),
        ("capacity_ah", 0.0), ("capacity_ah", -0.5), ("capacity_ah", float("nan")),
        ("capacity_ah", float("inf")),
        ("temp_c", float("nan")), ("temp_c", float("inf")),
        # finite, but a cycle would take more records than the cap allows
        ("temp_c", 1e308), ("hz", 1e12), ("capacity_ah", 1e15),
    ])
    def test_bad_arguments_rejected(self, field, value):
        kw = dict(temp_c=25.0, n_cycles=1, seed=0, capacity_ah=0.05, hz=10.0)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            gen_battery_curves(**kw)

    def test_soc_endpoints_and_monotonicity(self):
        for series in gen_battery_curves(25.0, n_cycles=2, seed=4,
                                         capacity_ah=0.05):
            socs = series.soc
            assert socs[0] == 1.0
            assert socs[-1] == 0.0
            assert np.all(np.diff(socs) <= 0)
            assert np.all((socs >= 0) & (socs <= 1))

    def test_cold_capacity_smaller(self):
        cold = gen_battery_curves(-20.0, 1, seed=7, capacity_ah=0.05)[0]
        warm = gen_battery_curves(25.0, 1, seed=7, capacity_ah=0.05)[0]
        assert len(cold) < len(warm)

    def test_cold_voltage_sag_larger(self):
        cold = gen_battery_curves(-20.0, 1, seed=8, capacity_ah=0.05)[0]
        warm = gen_battery_curves(25.0, 1, seed=8, capacity_ah=0.05)[0]
        n = min(len(cold), len(warm))
        # identical current draws over the shared prefix, colder resistance
        assert np.mean(cold.v[1:n]) < np.mean(warm.v[1:n])

    def test_tags_cycle_through_vocabulary(self):
        series_list = gen_battery_curves(25.0, 6, seed=1, capacity_ah=0.02)
        assert tuple(s[0].cycle for s in series_list) == CYCLE_TAGS

    def test_time_strictly_increasing(self):
        series = gen_battery_curves(25.0, 1, seed=2, capacity_ah=0.02)[0]
        assert np.all(np.diff(series.t) > 0)

    def test_seed_determinism(self):
        a = gen_battery_curves(0.0, 2, seed=11, capacity_ah=0.02)
        b = gen_battery_curves(0.0, 2, seed=11, capacity_ah=0.02)
        assert as_tuples(a) == as_tuples(b)


def reference_battery_curves(temp_c, n_cycles, seed, capacity_ah=0.5, hz=10.0,
                             lengths=None):
    """gen_battery_curves stepped one record at a time, with scalar draws:
    the simulator's bit-identity reference, each cycle a list of
    (t, v, i, temp, soc, cycle) tuples.  Appends each drawn segment length
    to `lengths` when given."""
    q_as = uga_data._capacity_as(temp_c, capacity_ah)
    rng = np.random.default_rng(seed)
    resistance = 0.05 * (1.0 + 0.01 * (25.0 - temp_c))
    dt = 1.0 / hz
    series_list = []
    for c in range(n_cycles):
        tag = CYCLE_TAGS[c % len(CYCLE_TAGS)]
        scale = uga_data._CYCLE_CURRENT_SCALE[tag]
        records = []
        t = 0.0
        drawn = 0.0
        current = 0.0
        segment_left = 0
        k = 0
        while True:
            soc = max(0.0, 1.0 - drawn / q_as)
            ocv = 3.0 + 1.2 * soc - 0.25 * math.exp(-8.0 * soc)
            v = ocv - current * resistance + rng.normal(0.0, 2e-3)
            i_meas = current + rng.normal(0.0, 5e-3)
            t_meas = temp_c + rng.normal(0.0, 0.1)
            records.append((t, v, i_meas, t_meas, soc, tag))
            if soc == 0.0:
                break
            if segment_left == 0:
                current = float(np.clip(rng.uniform(0.5, 4.0) * scale,
                                        uga_data._MIN_CURRENT_A, 6.0))
                segment_left = int(rng.uniform(30.0, 120.0) * hz)
                if lengths is not None:
                    lengths.append(segment_left)
            drawn += current * dt
            segment_left -= 1
            k += 1
            t = k * dt
        series_list.append(records)
    return series_list


# Every temperature x capacity x rate, three seeds each; n_cycles runs
# through 1..7 so the tags wrap.  At 0.02 Hz a segment length often rounds
# to 0, and that segment then runs to the end of its cycle.
_SIM_GRID = [(temp, cap, hz, seed, 1 + k % 7) for k, (temp, cap, hz, seed) in
             enumerate(itertools.product((-20.0, 0.0, 25.0, 40.0),
                                         (0.02, 0.2, 0.5), (10.0, 3.3, 1.0, 0.02),
                                         (0, 1, 2)))]


class TestSimulatorMatchesReference:
    @pytest.mark.parametrize("temp,cap,hz", sorted({g[:3] for g in _SIM_GRID}))
    def test_records_equal_reference(self, temp, cap, hz):
        for _, _, _, seed, n_cycles in (g for g in _SIM_GRID
                                        if g[:3] == (temp, cap, hz)):
            got = gen_battery_curves(temp, n_cycles, seed, capacity_ah=cap, hz=hz)
            assert as_tuples(got) == reference_battery_curves(
                temp, n_cycles, seed, capacity_ah=cap, hz=hz)

    def test_grid_reaches_zero_length_segments(self):
        lengths = []
        for temp, cap, hz, seed, n_cycles in _SIM_GRID:
            if hz == 0.02:
                reference_battery_curves(temp, n_cycles, seed, capacity_ah=cap,
                                         hz=hz, lengths=lengths)
        assert 0 in lengths
        assert {g[4] for g in _SIM_GRID} == set(range(1, 8))


def reference_battery_csv(series_list, path):
    """write_battery_csv as one csv.writer row per record."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(uga_data.CSV_COLUMNS)
        for series in series_list:
            for t, v, i, temp, soc, cycle in series.tolist():
                writer.writerow([repr(t), repr(v), repr(i), repr(temp),
                                 repr(soc), cycle])


class TestBatteryWriter:
    def test_simulated_pack_bytes_match_reference(self, tmp_path):
        series_list = gen_battery_curves(-20.0, 7, seed=3, capacity_ah=0.05)
        write_battery_csv(series_list, tmp_path / "fast.csv")
        reference_battery_csv(series_list, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_quoted_tags_match_reference_and_round_trip(self, tmp_path):
        tags = ["a,b", 'say "hi"', "x\ny", "US06"]
        series_list = [fake_series(30, tag=tag) for tag in tags]
        write_battery_csv(series_list, tmp_path / "fast.csv")
        reference_battery_csv(series_list, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()
        ingested = ingest_battery_csv(tmp_path / "fast.csv")
        assert [s[0].cycle for s in ingested] == tags
        assert as_tuples(ingested) == as_tuples(series_list)


class TestSeriesContract:
    """What callers read from a series list: its length, the total record
    count, records with a float .t in time order, and series[0].cycle as
    the cycle's tag."""

    TAGS = [*CYCLE_TAGS, CYCLE_TAGS[0]]

    def check(self, series_list, lengths):
        assert len(series_list) == len(self.TAGS)
        assert [len(s) for s in series_list] == lengths
        assert sum(len(s) for s in series_list) == sum(lengths)
        for series, tag in zip(series_list, self.TAGS):
            assert series[0].cycle == tag
            ts = [r.t for r in series]
            assert all(isinstance(t, float) for t in ts)
            assert ts == sorted(ts) and len(ts) == len(series)

    def test_simulated(self):
        self.check(gen_battery_curves(25.0, 7, seed=3, capacity_ah=0.05),
                   [478, 806, 981, 946, 628, 1869, 952])

    def test_ingested(self, tmp_path):
        path = tmp_path / "pack.csv"
        write_battery_csv(gen_battery_curves(25.0, 7, seed=3, capacity_ah=0.05),
                          path)
        self.check(ingest_battery_csv(path), [48, 81, 99, 95, 63, 187, 96])


class TestIngestion:
    def test_round_trip_and_downsampling(self, tmp_path):
        series_list = gen_battery_curves(25.0, 2, seed=5, capacity_ah=0.02, hz=10.0)
        path = tmp_path / "battery.csv"
        write_battery_csv(series_list, path)
        ingested = ingest_battery_csv(path)
        assert len(ingested) == 2
        for raw, ds in zip(series_list, ingested):
            assert len(ds) == pytest.approx(len(raw) / 10, abs=2)
            assert all(b.t - a.t >= 1.0 for a, b in zip(ds, ds[1:]))

    def test_bucket_arithmetic(self, tmp_path):
        series = [fake_series(1000, hz=10.0)]
        path = tmp_path / "b.csv"
        write_battery_csv(series, path)
        assert len(ingest_battery_csv(path)[0]) == 100

    def test_idempotent_on_1hz(self, tmp_path):
        series = [fake_series(50, hz=1.0)]
        path = tmp_path / "b.csv"
        write_battery_csv(series, path)
        once = ingest_battery_csv(path)
        write_battery_csv(once, path)
        assert as_tuples(ingest_battery_csv(path)) == as_tuples(once)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("time_s,voltage_v,current_a,temp_c,cycle\n0,3.5,1,25,US06\n")
        with pytest.raises(ValueError, match="soc"):
            ingest_battery_csv(path)

    def test_non_monotone_time_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(
            "time_s,voltage_v,current_a,temp_c,soc,cycle\n"
            "0,3.5,1,25,1.0,US06\n"
            "2,3.5,1,25,0.9,US06\n"
            "1,3.5,1,25,0.8,US06\n")
        with pytest.raises(ValueError, match="non-monotone"):
            ingest_battery_csv(path)

    def test_soc_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(
            "time_s,voltage_v,current_a,temp_c,soc,cycle\n"
            "0,3.5,1,25,1.5,US06\n")
        with pytest.raises(ValueError, match="soc"):
            ingest_battery_csv(path)

    @pytest.mark.parametrize("text, problem", [
        ("time_s,voltage_v,current_a,temp_c,cycle\n0,3.5,1,25,US06\n",
         "missing column 'soc'"),
        ("time_s,voltage_v,current_a,temp_c,soc,cycle\n0,3.5,1,25,1.0,US06\n"
         "1,3.5,1,25,-0.1,US06\n", "outside [0, 1] at row 3"),
        ("time_s,voltage_v,current_a,temp_c,soc,cycle\n0,3.5,1,25,1.0,US06\n"
         "0,3.5,1,25,0.9,US06\n", "non-monotone time within cycle 'US06' at row 3"),
        ("time_s,voltage_v,current_a,temp_c,soc,cycle\n0,3.5,1,25,1.0,US06\n"
         "1,3.5,1,25,0.9\n", "bad battery CSV row 3"),
        ("time_s,voltage_v,current_a,temp_c,soc,cycle\n0,3.5,1,25,1.0,US06\n"
         "1,3.5,x,25,0.9,US06\n", "bad battery CSV row 3"),
        # Rows are numbered by file line: the blank line counts.
        ("time_s,voltage_v,current_a,temp_c,soc,cycle\n0,3.5,1,25,1.0,US06\n"
         "\n1,3.5,x,25,0.9,US06\n", "bad battery CSV row 4:"),
        ("time_s,voltage_v,current_a,temp_c,soc,cycle\n\n\n0,3.5,1,25,1.0,US06\n"
         "1,3.5,1,25,-0.1,US06\n", "outside [0, 1] at row 5"),
    ])
    def test_schema_errors_name_the_file(self, tmp_path, text, problem):
        path = tmp_path / "pack.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            ingest_battery_csv(path)
        assert str(err.value).startswith(f"{path}: ") and problem in str(err.value)

    def test_non_utf8_rejected_with_file(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"time_s,voltage_v,current_a,temp_c,soc,cycle\n"
                         b"0,3.5,1,25,1.0,US\xff\n")
        with pytest.raises(ValueError) as err:
            ingest_battery_csv(path)
        assert type(err.value) is ValueError
        assert str(err.value).startswith(f"{path}: not UTF-8 text: 'utf-8' codec "
                                         "can't decode byte 0xff in position 61")

    @pytest.mark.parametrize("tag", ["US06\x00", "\x00", "a\x00b"])
    def test_nul_in_cycle_tag_rejected_with_file_and_row(self, tmp_path, tag):
        # numpy's str dtype would drop a trailing NUL from the stored tag.
        path = tmp_path / "b.csv"
        path.write_text("time_s,voltage_v,current_a,temp_c,soc,cycle\n"
                        f"0,3.5,1,25,1.0,US06\n1,3.5,1,25,0.9,{tag}\n")
        with pytest.raises(ValueError, match="NUL") as err:
            ingest_battery_csv(path)
        assert str(path) in str(err.value) and "row 3" in str(err.value)

    @pytest.mark.parametrize("row", ["0,nan,1,25,1.0,US06",
                                     "0,3.5,inf,25,1.0,US06",
                                     "0,3.5,1,-inf,1.0,US06",
                                     "nan,3.5,1,25,1.0,US06"])
    def test_non_finite_value_rejected_with_file_and_row(self, tmp_path, row):
        path = tmp_path / "b.csv"
        path.write_text("time_s,voltage_v,current_a,temp_c,soc,cycle\n"
                        f"{row}\n1,3.5,1,25,0.9,US06\n")
        with pytest.raises(ValueError, match="non-finite") as err:
            ingest_battery_csv(path)
        assert str(path) in str(err.value) and "row 2" in str(err.value)

    def test_contiguous_blocks_form_series(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(
            "time_s,voltage_v,current_a,temp_c,soc,cycle\n"
            "0,3.5,1,25,1.0,US06\n"
            "1,3.5,1,25,0.9,US06\n"
            "0,3.5,1,25,1.0,LA92\n"
            "0,3.5,1,25,1.0,US06\n")
        ingested = ingest_battery_csv(path)
        assert [s[0].cycle for s in ingested] == ["US06", "LA92", "US06"]


class TestWindowing:
    def test_counts(self):
        assert len(windows_to_set([fake_series(250)], 100, 1)) == 151
        assert len(windows_to_set([fake_series(100)], 100, 1)) == 1
        with pytest.raises(ValueError):
            windows_to_set([fake_series(99)], 100, 1)

    def test_label_is_final_soc(self):
        series = fake_series(120)
        ds = windows_to_set([series], 100, 1)
        for k, (w, label) in enumerate(zip(ds.inputs, ds.labels)):
            assert label == series[k + 99].soc
            assert w.shape == (100, 3)
            np.testing.assert_array_equal(w[-1], [series[k + 99].v,
                                                  series[k + 99].i,
                                                  series[k + 99].temp])

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            windows_to_set([fake_series(100)], 100, 0)

    @pytest.mark.parametrize("length", [0, -3])
    def test_bad_length(self, length):
        with pytest.raises(ValueError, match=f"length and stride .* got {length}, 1"):
            windows_to_set([fake_series(100)], length, 1)

    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(1, 40), extra=st.integers(0, 150),
           stride=st.integers(1, 17))
    def test_count_formula(self, length, extra, stride):
        n = length + extra
        got = len(windows_to_set([fake_series(n)], length, stride))
        want = sum(1 for s in range(0, n) if s % stride == 0 and s + length <= n)
        assert got == want == (n - length) // stride + 1

    def test_windows_to_set_stacks(self):
        series_list = [fake_series(120), fake_series(130)]
        ds = windows_to_set(series_list, length=100, stride=10)
        assert ds.inputs.shape == (3 + 4, 100, 3)
        assert ds.labels.shape == (7,)


class TestSplit:
    def make_series(self, tags):
        return [fake_series(5, tag=t) for t in tags]

    def test_panasonic_membership(self):
        series = self.make_series(CYCLE_TAGS)
        train, test = split_by_cycle(series, "Panasonic")
        assert sorted(s[0].cycle for s in test) == ["LA92", "NN", "US06"]
        assert sorted(s[0].cycle for s in train) == ["HWFET", "Mixed", "UDDS"]

    def test_lg_membership(self):
        series = self.make_series(CYCLE_TAGS)
        train, test = split_by_cycle(series, "LG")
        assert sorted(s[0].cycle for s in test) == ["HWFET", "LA92", "US06"]
        assert sorted(s[0].cycle for s in train) == ["Mixed", "NN", "UDDS"]

    def test_partition_exact(self):
        series = self.make_series(CYCLE_TAGS * 3)
        train, test = split_by_cycle(series, "LG")
        assert len(train) + len(test) == len(series)
        ids = {id(s) for s in train} | {id(s) for s in test}
        assert len(ids) == len(series)

    def test_unknown_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            split_by_cycle(self.make_series(["WLTP"]), "LG")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="dataset"):
            split_by_cycle(self.make_series(["US06"]), "Tesla")


class TestVectorCsv:
    def test_labeled_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(17, 3))
        y = rng.uniform(size=17)
        path = tmp_path / "v.csv"
        write_vector_csv(path, x, y)
        xb, yb = read_vector_csv(path)
        assert np.array_equal(x, xb)
        assert np.array_equal(y, yb)
        assert path.read_text().splitlines()[0] == "x0,x1,x2,y"

    def test_unlabeled_round_trip(self, tmp_path):
        x = np.array([[0.25], [1.0 / 3.0]])
        path = tmp_path / "u.csv"
        write_vector_csv(path, x)
        xb, yb = read_vector_csv(path)
        assert yb is None
        assert np.array_equal(x, xb)

    def test_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_vector_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="row 3"):
            read_vector_csv(path)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("x0,y\n1.0,0.5\n2.0,0.25\n\n")
        x, y = read_vector_csv(path)
        assert x.tolist() == [[1.0], [2.0]] and y.tolist() == [0.5, 0.25]
        path.write_text("x0,y\n1.0,0.5\n\n3.0\n")
        with pytest.raises(ValueError, match="row 4: expected 2 fields"):
            read_vector_csv(path)

    def test_non_utf8_rejected_with_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x0,y\n0.0,0.5\n\xff\n")
        with pytest.raises(ValueError) as err:
            read_vector_csv(path)
        assert type(err.value) is ValueError
        assert str(err.value) == (f"{path}: not UTF-8 text: 'utf-8' codec can't "
                                  "decode byte 0xff in position 13: invalid start byte")

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y\n")
        with pytest.raises(ValueError, match="no data"):
            read_vector_csv(path)

    @pytest.mark.parametrize("body", ["1.0,nan\n", "inf,2.0\n", "-inf,2.0\n"])
    def test_non_finite_value_rejected_with_file_and_row(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y\n1.0,2.0\n" + body)
        with pytest.raises(ValueError, match="non-finite") as err:
            read_vector_csv(path)
        assert str(path) in str(err.value) and "row 3" in str(err.value)


# One field over the csv module's size limit of 131,072 characters, in the
# second data row after a blank line, through each CSV reader.
@pytest.mark.parametrize("reader,header,row", [
    (read_vector_csv, "x0,y", "{},0.5"),
    (ingest_battery_csv, ",".join(uga_data.CSV_COLUMNS), "1,3.5,1,25,0.9,{}"),
    (read_metrics_csv, ",".join(METRICS_COLUMNS), "t,m,0,{},,,,"),
], ids=["vector", "battery", "metrics"])
def test_csv_error_names_file_and_row(tmp_path, reader, header, row):
    path = tmp_path / "huge.csv"
    path.write_text(f"{header}\n{row.format(0)}\n\n{row.format('1' * 131_073)}\n")
    with pytest.raises(ValueError) as err:
        reader(path)
    assert type(err.value) is ValueError
    assert str(err.value) == f"{path}: row 4: field larger than field limit (131072)"
