import json
import os
from pathlib import Path

import pytest

from entangletext import (
    PipelineConfig,
    bundled_corpus_path,
    load_topic_corpus,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def planted_facts():
    return json.loads((DATA / "planted_facts.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def planted_expected():
    return json.loads((DATA / "planted_expected.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def pipeline_config():
    return PipelineConfig()


@pytest.fixture(scope="session")
def bundled_topics(pipeline_config):
    """Bundled corpus, loaded once per session."""
    return load_topic_corpus(bundled_corpus_path(), pipeline_config)


@pytest.fixture(scope="session")
def bundled_by_id(bundled_topics):
    return {t.topic_id: t for t in bundled_topics}


@pytest.fixture
def subprocess_env():
    """Environment for a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
