"""Fault diagnosis: dictionaries, effect-cause, compactor-aware."""

from .compactor_diag import CompactedDiagnoser, CompactedFailures
from .dictionary import FaultDictionary, Failures, signature_to_failures
from .effect_cause import DiagnosisResult, EffectCauseDiagnoser, inject_and_observe

__all__ = [
    "FaultDictionary",
    "Failures",
    "signature_to_failures",
    "EffectCauseDiagnoser",
    "DiagnosisResult",
    "inject_and_observe",
    "CompactedDiagnoser",
    "CompactedFailures",
]
