"""Dataset ingestion and the three bundled reliability samples.

Bundled fixtures: ``turbocharger`` (40 failure times, thousands of hours),
``nicotine`` (346 cigarette nicotine measurements) and ``carbon_fibres``
(100 breaking stresses).  Files are plain text, whitespace or comma
separated (comma when any non-comment line holds one), with ``#`` comment
lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = ["Dataset", "load_dataset", "save_dataset", "builtin_dataset", "BUILTIN_NAMES"]

BUILTIN_NAMES = ("turbocharger", "nicotine", "carbon_fibres")


@dataclass(frozen=True)
class Dataset:
    name: str
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("a dataset is a nonempty flat vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("dataset contains non-finite values")

    @property
    def n_obs(self) -> int:
        return int(self.values.size)


def _parse_text(text: str, name: str) -> Dataset:
    # the numbered lines that are neither blank nor comments, sniffed and parsed
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
             if line.strip()[:1] not in ("", "#")]
    sep = "," if any("," in line for _, line in lines) else None  # None: any run of whitespace
    values = []
    for lineno, line in lines:
        tokens = [tok.strip() for tok in line.split(sep)]
        pos = 0
        for tok in tokens:
            col = line.find(tok, pos) + 1
            pos = col + len(tok) - 1
            if not tok:
                continue
            try:
                values.append(float(tok))
            except ValueError:
                raise ValueError(
                    f"{name}: cannot parse {tok!r} as a number at {lineno}:{col}"
                ) from None
    if not values:
        raise ValueError(f"{name}: no numeric values found")
    return Dataset(name=name, values=np.array(values))


def load_dataset(path) -> Dataset:
    """Read a numeric dataset from a text file.

    Values are comma separated if any non-comment line holds a comma, and
    whitespace separated otherwise.  Lines starting with ``#`` are ignored.
    A token that is not a number raises ``ValueError`` naming its line:column.
    """
    path = Path(path)
    return _parse_text(path.read_text(), name=path.stem)


def save_dataset(dataset: Dataset, path) -> None:
    """Write values one per line; ``load_dataset`` round-trips exactly."""
    path = Path(path)
    lines = [f"# {dataset.name}: {dataset.n_obs} observations"]
    lines += [repr(float(v)) for v in dataset.values]
    path.write_text("\n".join(lines) + "\n")


def builtin_dataset(name: str) -> Dataset:
    """One of the bundled samples: turbocharger, nicotine or carbon_fibres."""
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin dataset {name!r} (known: {BUILTIN_NAMES})")
    text = resources.files("bgmo").joinpath(f"_data/{name}.txt").read_text()
    return _parse_text(text, name=name)
