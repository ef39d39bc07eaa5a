"""Synthetic structured documents (the paper's evaluation substrate).

The paper's §8 experiments use "three sets of files ... different versions
of a document (a conference paper)". Those files are not available, so this
module generates statistically similar stand-ins: documents with sections,
optional subsections and lists, paragraphs, and sentences whose word
distribution is Zipf-like (drawn from a realistic vocabulary with a heavy
head). Sentence texts are almost surely unique — which is exactly the
Matching Criterion 3 regime the paper argues holds for real documents — and
duplicates can be injected deliberately to study the criterion's failure
modes (Table 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Union

from ..core.arena import ArenaBuilder
from ..core.tree import Tree

#: A compact English-like vocabulary; the head words get Zipf-weighted mass.
VOCABULARY = (
    "the of and to a in that is for it as was with be by on not he this are "
    "or his from at which but have an they you were her all she there would "
    "their we him been has when who will no more if out so up said what its "
    "about than into them can only other time new some could these two may "
    "first then do any like my now over such our man me even most made after "
    "also did many off before must well back through years where much your "
    "way down should because each just those people how too little state "
    "good very make world still see own men work long here get both between "
    "life being under never day same another know while last might us great "
    "old year come since against go came right used take three states "
    "algorithm data tree node structure system query database document "
    "change version edit script match update delete insert move cost result "
    "section paragraph sentence analysis performance experiment measure"
).split()

_CONTENT_PREFIXES = (
    "data tree node query index log disk page view key hash sort scan join "
    "lock cache type path rule plan"
).split()
_CONTENT_SUFFIXES = (
    "base set map list graph table store block frame line word form mark "
    "point code name size cost time rate"
).split()
#: 400 distinctive compound terms playing the role of content words /
#: named entities; they keep independently generated sentences apart so
#: Matching Criterion 3 holds for almost all leaves, as in real documents.
CONTENT_WORDS = [a + b for a in _CONTENT_PREFIXES for b in _CONTENT_SUFFIXES]


@dataclass
class DocumentSpec:
    """Shape parameters of a synthetic document."""

    sections: int = 6
    paragraphs_per_section: int = 6
    sentences_per_paragraph: int = 5
    words_per_sentence: int = 12
    subsection_probability: float = 0.0
    list_probability: float = 0.0
    items_per_list: int = 3
    #: Fraction of sentences that are exact copies of an earlier sentence —
    #: deliberate Criterion 3 violations (0.0 keeps the criterion intact).
    duplicate_sentence_rate: float = 0.0
    #: Fraction of word positions filled with distinctive content terms
    #: instead of Zipf-weighted function words. Higher values make
    #: sentences more unique (stronger Criterion 3).
    content_word_rate: float = 0.35


class DocumentGenerator:
    """Seeded generator of document trees (labels D/Sec/SubSec/P/list/item/S)."""

    def __init__(self, rng_or_seed: Union[random.Random, int] = 0) -> None:
        self.rng = (
            rng_or_seed
            if isinstance(rng_or_seed, random.Random)
            else random.Random(rng_or_seed)
        )
        # Zipf-ish weights: weight(i) ~ 1 / (i + 10), accumulated once
        # (random.choices would rebuild the running sums on every call).
        self._cum_weights = list(
            accumulate(1.0 / (i + 10) for i in range(len(VOCABULARY)))
        )
        self._emitted_sentences: List[str] = []

    # ------------------------------------------------------------------
    def sentence(self, spec: DocumentSpec) -> str:
        """One sentence; occasionally an exact duplicate when configured."""
        if (
            spec.duplicate_sentence_rate > 0
            and self._emitted_sentences
            and self.rng.random() < spec.duplicate_sentence_rate
        ):
            text = self.rng.choice(self._emitted_sentences)
        else:
            length = max(
                3, int(self.rng.gauss(spec.words_per_sentence, spec.words_per_sentence / 4))
            )
            words = self.rng.choices(VOCABULARY, cum_weights=self._cum_weights, k=length)
            for index in range(length):
                if self.rng.random() < spec.content_word_rate:
                    words[index] = self.rng.choice(CONTENT_WORDS)
            words[0] = words[0].capitalize()
            text = " ".join(words) + "."
        self._emitted_sentences.append(text)
        return text

    def heading(self) -> str:
        words = self.rng.choices(VOCABULARY, cum_weights=self._cum_weights, k=3)
        return " ".join(word.capitalize() for word in words)

    # ------------------------------------------------------------------
    def document(self, spec: Optional[DocumentSpec] = None) -> Tree:
        """Generate one document tree."""
        spec = spec if spec is not None else DocumentSpec()
        self._emitted_sentences = []
        builder = ArenaBuilder()
        root = self._add(builder, -1, "D", None)
        for _ in range(self._jitter(spec.sections)):
            section = self._add(builder, root, "Sec", self.heading())
            self._fill_section(builder, section, spec, allow_subsections=True)
        return Tree.from_arena(builder.finish())

    def _fill_section(
        self, builder: ArenaBuilder, parent: int, spec: DocumentSpec, allow_subsections: bool
    ) -> None:
        for _ in range(self._jitter(spec.paragraphs_per_section)):
            roll = self.rng.random()
            if allow_subsections and roll < spec.subsection_probability:
                subsection = self._add(builder, parent, "SubSec", self.heading())
                self._fill_section(builder, subsection, spec, allow_subsections=False)
            elif roll < spec.subsection_probability + spec.list_probability:
                lst = self._add(builder, parent, "list", None)
                for _ in range(self._jitter(spec.items_per_list)):
                    item = self._add(builder, lst, "item", None)
                    for _ in range(self._jitter(2)):
                        self._add(builder, item, "S", self.sentence(spec))
            else:
                paragraph = self._add(builder, parent, "P", None)
                for _ in range(self._jitter(spec.sentences_per_paragraph)):
                    self._add(builder, paragraph, "S", self.sentence(spec))

    @staticmethod
    def _add(builder: ArenaBuilder, parent: int, label: str, value: Optional[str]) -> int:
        """Append a node in preorder; its id is its creation rank."""
        return builder.add(parent, len(builder.node_ids) + 1, label, value)

    def _jitter(self, mean: int) -> int:
        """A count near *mean* (at least 1)."""
        if mean <= 1:
            return 1
        return max(1, mean + self.rng.randint(-mean // 3, mean // 3))


def generate_document(
    seed: int = 0, spec: Optional[DocumentSpec] = None
) -> Tree:
    """Convenience wrapper: one seeded synthetic document."""
    return DocumentGenerator(seed).document(spec)
