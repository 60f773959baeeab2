"""Access to the bundled model files and litmus corpus."""

from __future__ import annotations

from pathlib import Path

from .catlang import CatModel, parse_cat

BUNDLED_MODELS = ("inorder", "stl", "psf", "tso", "tso-mcu")


def _package_dir(sub: str) -> Path:
    return Path(__file__).parent / sub


def models_dir() -> Path:
    return _package_dir("models")


def corpus_dir() -> Path:
    return _package_dir("corpus")


def load_model(name_or_path: str) -> CatModel:
    """Resolve a bundled model name or a filesystem path to a parsed model."""
    if name_or_path in BUNDLED_MODELS:
        path = models_dir() / f"{name_or_path}.cat"
        return parse_cat(path.read_text(), name_or_path)
    path = Path(name_or_path)
    if not path.is_file():
        raise FileNotFoundError(
            f"unknown model {name_or_path!r}: not one of {', '.join(BUNDLED_MODELS)} "
            f"and no such file"
        )
    return parse_cat(path.read_text(), path.stem)
