"""Any id or value a loader accepts round-trips through every writer."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hubsel import evaluation, table
from hubsel.evaluation import Ranking, load_run, load_scores, save_run
from hubsel.features import FeatureMatrix, load_features, save_features
from hubsel.neighbors import NeighborGraph, load_graph, save_graph
from hubsel.stats import (
    DiversityProfile,
    HubnessProfile,
    LidProfile,
    StatProfile,
    load_profile_csv,
    save_profile_csv,
)

# every id a loader accepts: UTF-8 text that table.check_id allows
_IDS = st.text(st.characters(codec="utf-8", exclude_characters=",\r\n\x00"), max_size=6)
_VALUES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def collections(draw):
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    ids = draw(st.lists(_IDS, min_size=n, max_size=n, unique=True))
    values = draw(st.lists(st.lists(_VALUES, min_size=d, max_size=d), min_size=n, max_size=n))
    scores = draw(st.lists(st.floats(evaluation.SCORE_MIN, evaluation.SCORE_MAX),
                           min_size=n, max_size=n))
    return ids, np.array(values, dtype=np.float64), scores


def _same_bits(a, b) -> bool:
    return np.asarray(a).dtype == np.asarray(b).dtype and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(collections())
def test_ids_and_values_round_trip_through_every_writer(tmp_path, case):
    ids, values, scores = case
    m = FeatureMatrix(ids=ids, values=values)
    n = m.n

    # features CSV: bit-exact
    save_features(m, tmp_path / "m.csv")
    back = load_features(tmp_path / "m.csv")
    assert back.ids == ids and _same_bits(back.values, values)

    # features fbin: the float32 cast, or no file when a value lies beyond it
    fbin = tmp_path / "m.fbin"
    fbin.unlink(missing_ok=True)
    with np.errstate(over="ignore"):
        cast = values.astype(np.float32).astype(np.float64)
    fits = np.isfinite(cast).all(axis=1)
    if fits.all():
        save_features(m, fbin)
        back = load_features(fbin)
        assert back.ids == ids and _same_bits(back.values, cast)
    else:
        try:
            save_features(m, fbin)
        except ValueError as exc:
            assert str(exc) == f"row {np.flatnonzero(~fits)[0] + 1}: value out of float32 range"
        else:
            raise AssertionError("a value beyond float32's range was written")
        assert not fbin.exists()

    # the analyze archive: ids, graph and matrix member
    g = NeighborGraph(k=1, metric="euclidean", indices=((np.arange(n) + 1) % n)[:, None],
                      distances=values[:, :1].copy())
    save_graph(g, ids, tmp_path / "g.npz", {"values": values})
    got_ids, got, extra = load_graph(tmp_path / "g.npz", ("values",))
    assert got_ids == ids and got.metric == "euclidean"
    assert np.array_equal(got.indices, g.indices) and _same_bits(got.distances, g.distances)
    assert _same_bits(extra["values"], values)

    # profile.csv: lid and diversity as written, bit-exact
    profile = StatProfile(
        ids=ids,
        hubness=HubnessProfile(k=1, scores=np.arange(n), categories=np.array(["normal"] * n)),
        lid=LidProfile(n_nbr=1, lids=values[:, 0].copy(), degenerate=np.arange(n) % 2 == 1),
        diversity=DiversityProfile(m_nbr=1, values=values[:, -1].copy()),
    )
    save_profile_csv(profile, tmp_path / "profile.csv")
    back = load_profile_csv(tmp_path / "profile.csv")
    assert back.ids == ids
    assert np.array_equal(back.hubness.scores, profile.hubness.scores)
    assert np.array_equal(back.hubness.categories, profile.hubness.categories)
    assert _same_bits(back.lid.lids, profile.lid.lids)
    assert np.array_equal(back.lid.degenerate, profile.lid.degenerate)
    assert _same_bits(back.diversity.values, profile.diversity.values)

    # the run file, with an id as the query id
    save_run(tmp_path / "run.csv", Ranking(query_id=ids[-1], items=ids))
    assert load_run(tmp_path / "run.csv") == [Ranking(query_id=ids[-1], items=ids)]

    # the scores file, written in the table dialect it is read in
    table.write_rows(tmp_path / "scores.csv", ([i, repr(s)] for i, s in zip(ids, scores)),
                     header=evaluation.SCORES_HEADER)
    got_scores = load_scores(tmp_path / "scores.csv")
    assert list(got_scores) == ids
    assert all(np.float64(a).tobytes() == np.float64(b).tobytes()
               for a, b in zip(got_scores.values(), scores))
