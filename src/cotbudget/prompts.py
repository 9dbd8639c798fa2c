"""Prompt catalog and question-template rendering.

The catalog covers nine fixed compression instructions plus five
length-limited families; the default grid instantiates the limited families
at 22 points for a 31-prompt catalog. Every request rendered for a model
wraps the instruction and question in a single fixed template ending with a
final-line answer-format contract that the grader relies on.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .errors import RecordSchemaError
from .inputs import (
    NON_EMPTY_STRING, FrozenValue, checked_entries, read_json, set_fields, write_json,
)

FIXED_INSTRUCTIONS: dict[str, str] = {
    "NoCoT": "Only give the final answer.",
    "DefaultCoT": "Think step-by-step.",
    "BeConcise": "Be concise.",
    "BulletPoints": "Only use bullet points.",
    "OnlyNumbers": "Only use numbers or equations.",
    "NoSpaces": "Do not use any spaces or line breaks.",
    "NoProperGrammar": "Do not use proper grammar.",
    "AbbreviateWords": "Abbreviate words as much as possible.",
    "ChineseCoT": "Respond in Chinese",
}

# family -> (instruction template, limit unit, inclusive limit range)
PARAMETERIZED_FAMILIES: dict[str, tuple[str, str, tuple[int, int | None]]] = {
    "WordLimit": ("Use at most {k} words.", "words", (1, 100)),
    "CharLimit": ("Use at most {k} letters.", "letters", (1, 500)),
    "TokenLimit": ("Use at most {k} tokens.", "tokens", (1, 500)),
    "StepLimit": ("Use at most {k} steps.", "steps", (1, 5)),
    "ChineseCoT(k)": ("Use at most {k} Chinese characters.", "chinese-characters", (1, None)),
}

DEFAULT_LIMIT_GRID: dict[str, tuple[int, ...]] = {
    "WordLimit": (1, 5, 10, 15, 25, 50, 100),
    "CharLimit": (50, 100, 500),
    "TokenLimit": (10, 25, 50, 100, 500),
    "StepLimit": (1, 2, 3, 5),
    "ChineseCoT(k)": (10, 50, 100),
}

QUESTION_TEMPLATE = (
    "Answer the following question. {prompt}\n"
    "Question: {question}\n"
    "The last line of your response should be of the following format: "
    "'Answer: ANSWER' (without quotes) where ANSWER is your final answer."
)

class PromptSpec(FrozenValue):
    """One catalog entry: a chain-of-thought instruction, optionally limited to k units."""

    __slots__ = ("prompt_id", "family", "instruction", "limit", "limit_unit")

    def __init__(self, prompt_id: str, family: str, instruction: str, limit: int | None = None,
                 limit_unit: str | None = None) -> None:
        values = (prompt_id, family, instruction, limit, limit_unit)
        for (name, (test, expected)), value in zip(_SPEC_RULES.items(), values):
            if not test(value):
                raise ValueError(f"{name} must {expected}, got {value!r}")
        parameterized = family in PARAMETERIZED_FAMILIES
        if not parameterized and family not in FIXED_INSTRUCTIONS:
            raise ValueError(f"unknown prompt family {family!r}")
        if parameterized:
            if limit is None:
                raise ValueError(f"family {family!r} requires a limit")
            _, unit, (lo, hi) = PARAMETERIZED_FAMILIES[family]
            if limit < lo or (hi is not None and limit > hi):
                upper = hi if hi is not None else "inf"
                raise ValueError(
                    f"limit {limit} out of range [{lo}, {upper}] for family {family!r}"
                )
            if limit_unit != unit:
                raise ValueError(f"family {family!r} uses limit_unit {unit!r}")
        elif limit is not None or limit_unit is not None:
            raise ValueError(f"family {family!r} does not take a limit")
        set_fields(self, values)

    def to_json_dict(self) -> dict:
        return {
            "prompt_id": self.prompt_id,
            "family": self.family,
            "instruction": self.instruction,
            "limit": self.limit,
            "limit_unit": self.limit_unit,
        }


def fixed_spec(family: str) -> PromptSpec:
    """Catalog entry for one of the nine fixed instructions."""
    return PromptSpec(prompt_id=family, family=family, instruction=FIXED_INSTRUCTIONS[family])


def limited_spec(family: str, k: int) -> PromptSpec:
    """Catalog entry for a length-limited family instantiated at limit k."""
    template, unit, _ = PARAMETERIZED_FAMILIES[family]
    base = family[: -len("(k)")] if family.endswith("(k)") else family
    return PromptSpec(
        prompt_id=f"{base}({k})",
        family=family,
        instruction=template.format(k=k),
        limit=k,
        limit_unit=unit,
    )


class PromptCatalog(FrozenValue):
    """Ordered, id-unique collection of prompt specs."""

    __slots__ = ("specs",)

    def __init__(self, specs: tuple[PromptSpec, ...]) -> None:
        specs = tuple(specs)
        ids = [s.prompt_id for s in specs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError("duplicate prompt_id(s): " + ", ".join(dupes))
        set_fields(self, (specs,))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[PromptSpec]:
        return iter(self.specs)

    @property
    def prompt_ids(self) -> tuple[str, ...]:
        return tuple(s.prompt_id for s in self.specs)

    def get(self, prompt_id: str) -> PromptSpec:
        for spec in self.specs:
            if spec.prompt_id == prompt_id:
                return spec
        raise KeyError(prompt_id)

    def save(self, path: str | Path) -> None:
        write_json(path, [s.to_json_dict() for s in self.specs])

    @classmethod
    def load(cls, path: str | Path) -> PromptCatalog:
        """Read a file written by save; bad content is a RecordParseError or a
        RecordSchemaError naming the file and the JSON location (``[2].prompt_id``).
        """
        payload = read_json(path)
        try:
            if type(payload) is not list or not payload:
                raise RecordSchemaError(
                    f"the file must hold a non-empty JSON array, got {payload!r:.60}"
                )
            specs = []
            for i, fields in enumerate(checked_entries(payload, "", _SPEC_RULES, _OPTIONAL)):
                try:
                    specs.append(PromptSpec(*map(fields.get, _SPEC_RULES)))
                except ValueError as exc:
                    raise RecordSchemaError(f"[{i}]: {exc}") from None
        except RecordSchemaError as exc:
            raise RecordSchemaError(exc.reason, path=str(path)) from None
        return cls(tuple(specs))


# The catalog file's field rules, which PromptSpec checks too, in the form inputs.checked reads.
_SPEC_RULES = {
    "prompt_id": NON_EMPTY_STRING,
    "family": NON_EMPTY_STRING,
    "instruction": (lambda v: type(v) is str, "be a string"),
    "limit": (lambda v: v is None or type(v) is int, "be null or an integer"),
    "limit_unit": (lambda v: v is None or type(v) is str, "be null or a string"),
}
_OPTIONAL = {"limit": None, "limit_unit": None}  # a catalog entry may leave these out


def default_catalog() -> PromptCatalog:
    """The 31-prompt default catalog: 9 fixed entries plus the default limit grid."""
    specs = [fixed_spec(name) for name in FIXED_INSTRUCTIONS]
    for family, grid in DEFAULT_LIMIT_GRID.items():
        specs.extend(limited_spec(family, k) for k in grid)
    return PromptCatalog(specs=tuple(specs))


def render(spec: PromptSpec, question: str) -> str:
    """Render the full request text for one (instruction, question) pair."""
    if not question:
        raise ValueError("question must be non-empty")
    return QUESTION_TEMPLATE.format(prompt=spec.instruction, question=question)
