"""Benchmark workloads: seeded input generators and the training setup of each.

Every workload reaches the program only as two sparse text files,
`train.txt` and `test.txt`, written with `data_io.save_sparse_text`. The
generators depend on nothing but the workload seed, so one seed always
gives byte-identical files. Nothing here imports lightmc at module import
time: a pass must pay for `import lightmc` itself, inside its set-up time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRAIN_FILE = "train.txt"
TEST_FILE = "test.txt"
TOPIC_CLASSES = 50
TOPIC_VOCAB = 10_000
TOPIC_TRAIN_ROWS = 2000
TOPIC_TEST_ROWS = 2000
TOPIC_MEAN_TERMS = 30  # words drawn per document, before repeats merge
TOPIC_POOL_WORDS = 600  # the class topics draw their words from this shared pool
TOPIC_WORDS = 40  # words of one class topic
TOPIC_SHARE = 0.2  # share of a document's words drawn from its class topic
ZIPF_EXPONENT = 1.1  # of the background word frequencies


@dataclass(frozen=True)
class Workload:
    name: str
    # TrainConfig fields; "threads" is clamped to the usable cores
    config: dict
    # LearnerSpec fields
    learner: dict
    # test_error above this fails the sanity gate; chance is 1 - 1/K
    error_ceiling: float


def sparse_topics(seed: int):
    """Text-like rows: a Zipf background plus per-class topic words.

    Each class owns TOPIC_WORDS words drawn from a shared pool, so topics
    overlap and classes are confusable. A document draws about
    TOPIC_MEAN_TERMS words, a TOPIC_SHARE of them from its class topic and
    the rest from the background; its values are L2-normalised log counts.
    Train and test rows come from the same topics and the same background.
    Returns ((indptr, indices, values, labels) for train, the same for test).
    """
    rng = np.random.default_rng([seed, 31337])
    background = np.arange(1, TOPIC_VOCAB + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    background = background[rng.permutation(TOPIC_VOCAB)] / background.sum()
    # the most frequent term takes the last index, so every training file
    # spans the whole vocabulary and test files parse against its feature count
    top = int(np.argmax(background))
    background[[top, -1]] = background[[-1, top]]
    pool = rng.choice(TOPIC_VOCAB, TOPIC_POOL_WORDS, replace=False)
    topics = np.stack(
        [rng.choice(pool, TOPIC_WORDS, replace=False) for _ in range(TOPIC_CLASSES)]
    )

    def draw(n: int):
        labels = rng.permutation(np.arange(n) % TOPIC_CLASSES)
        indptr = [0]
        indices, values = [], []
        for k in labels:
            length = max(1, int(rng.poisson(TOPIC_MEAN_TERMS)))
            n_topic = int(rng.binomial(length, TOPIC_SHARE))
            words = np.concatenate(
                [
                    rng.choice(topics[k], n_topic),
                    rng.choice(TOPIC_VOCAB, length - n_topic, p=background),
                ]
            )
            terms, counts = np.unique(words, return_counts=True)
            weights = np.log1p(counts)
            indices.append(terms)
            values.append(weights / np.linalg.norm(weights))
            indptr.append(indptr[-1] + terms.size)
        return np.array(indptr), np.concatenate(indices), np.concatenate(values), labels

    return draw(TOPIC_TRAIN_ROWS), draw(TOPIC_TEST_ROWS)


def make_sparse_topic_inputs(seed: int, out_dir: Path) -> None:
    from lightmc import data_io

    names = tuple(f"topic{k:02d}" for k in range(TOPIC_CLASSES))
    for (indptr, indices, values, labels), name in zip(
        sparse_topics(seed), (TRAIN_FILE, TEST_FILE)
    ):
        data = data_io.SparseDataset(
            indptr=indptr,
            indices=indices,
            values=values,
            labels=labels,
            num_features=TOPIC_VOCAB,
            num_classes=TOPIC_CLASSES,
            label_names=names,
        )
        data_io.save_sparse_text(data, out_dir / name)


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse_topics_trees",
            config=dict(
                code_length="auto",
                max_rounds=3,
                start_round=2,
                early_stop_rounds=0,
                threads=2,
            ),
            learner=dict(kind="boosted_trees", learning_rate=0.5, max_leaves=8),
            error_ceiling=0.75,
        ),
        Workload(
            name="sparse_topics_linear",
            config=dict(
                code_length="auto",
                max_rounds=10,
                early_stop_rounds=0,
                threads=1,
            ),
            learner=dict(kind="linear_sgd", learning_rate=0.05),
            error_ceiling=0.5,
        ),
    )
}
