// Copyright (c) DBExplorer reproduction authors.
// Machine-readable CAD View export: JSON for downstream UIs (the paper's
// TPFacet front end consumed exactly this shape over HTML/Javascript) and
// CSV for spreadsheet analysis of IUnit labels.

#pragma once

#include <string>

#include "src/core/cad_view.h"

namespace dbx {

/// Serializes the view as a JSON object:
/// {
///   "pivot_attr": ...,
///   "tau": ...,
///   "compare_attrs": [{"name":..., "relevance":..., "p_value":...,
///                      "user_selected":...}, ...],
///   "rows": [{"pivot_value":..., "partition_size":...,
///             "iunits":[{"score":..., "size":...,
///                        "cells":[{"attr":..., "labels":[...],
///                                  "counts":[...]}, ...]}, ...]}, ...],
///   "timings_ms": {...}
/// }
/// Strings are escaped per RFC 8259; output is deterministic.
std::string CadViewToJson(const CadView& view);

/// Flat CSV: one line per (pivot value, IUnit rank, compare attribute) with
/// the representative labels joined by '|'.
std::string CadViewToCsv(const CadView& view);

}  // namespace dbx
