"""Analysis utilities: experiment drivers and text tables shared by the
benchmark harnesses. The closed-form rate model lives in
:mod:`repro.runtime.analytic`."""

from repro.analysis.tables import format_table

__all__ = ["format_table"]
