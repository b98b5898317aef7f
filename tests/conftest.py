"""Shared fixtures: a default synthetic corpus, generated once per
session, and a runner that repeats a computation at several share
counts."""

import sys

import pytest

from sinmt import autodiff as ad
from sinmt import synthdata as sd


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    sd.generate_corpus(sd.CorpusConfig(), out)
    return out


@pytest.fixture(scope="session")
def corpus(corpus_dir):
    return sd.read_manifest(corpus_dir)


@pytest.fixture
def across_counts(monkeypatch):
    """``across_counts(run)``: ``run()``'s results with the work of
    every op split into 1, 2 and 3 shares, however small the op, with
    the interpreter switching threads as often as it can, so that
    shares interleave even where there are fewer cores than shares."""
    monkeypatch.setattr(ad, "_SPLIT_MIN_SIZE", 0)

    def run_at_each_count(run):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = []
            for count in (1, 2, 3):
                monkeypatch.setattr(ad, "_worker_count", lambda: count)
                results.append(run())
        finally:
            sys.setswitchinterval(interval)
        return results

    return run_at_each_count
