#include "src/core/cad_view_io.h"

#include "src/util/string_util.h"

namespace dbx {

namespace {

std::string Quoted(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

std::string Num(double d) {
  // Compact but full-precision-enough rendering for scores and timings.
  std::string s = StringPrintf("%.6g", d);
  return s;
}

}  // namespace

std::string CadViewToJson(const CadView& view) {
  std::string out = "{";
  out += "\"pivot_attr\":" + Quoted(view.pivot_attr);
  out += ",\"tau\":" + Num(view.tau);

  out += ",\"compare_attrs\":[";
  for (size_t i = 0; i < view.compare_attrs.size(); ++i) {
    const CompareAttribute& ca = view.compare_attrs[i];
    if (i) out += ",";
    out += "{\"name\":" + Quoted(ca.name) +
           ",\"relevance\":" + Num(ca.relevance) +
           ",\"p_value\":" + Num(ca.p_value) + ",\"user_selected\":" +
           (ca.user_selected ? "true" : "false") + "}";
  }
  out += "]";

  out += ",\"rows\":[";
  for (size_t r = 0; r < view.rows.size(); ++r) {
    const CadViewRow& row = view.rows[r];
    if (r) out += ",";
    out += "{\"pivot_value\":" + Quoted(row.pivot_value) +
           ",\"partition_size\":" + std::to_string(row.partition_size) +
           ",\"iunits\":[";
    for (size_t u = 0; u < row.iunits.size(); ++u) {
      const IUnit& iu = row.iunits[u];
      if (u) out += ",";
      out += "{\"score\":" + Num(iu.score) +
             ",\"size\":" + std::to_string(iu.size()) + ",\"cells\":[";
      for (size_t c = 0; c < iu.cells.size(); ++c) {
        const IUnitCell& cell = iu.cells[c];
        if (c) out += ",";
        out += "{\"attr\":" +
               Quoted(c < view.compare_attrs.size()
                          ? view.compare_attrs[c].name
                          : std::string()) +
               ",\"labels\":[";
        for (size_t l = 0; l < cell.labels.size(); ++l) {
          if (l) out += ",";
          out += Quoted(cell.labels[l]);
        }
        out += "],\"counts\":[";
        for (size_t l = 0; l < cell.counts.size(); ++l) {
          if (l) out += ",";
          out += std::to_string(cell.counts[l]);
        }
        out += "]}";
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]";

  out += ",\"timings_ms\":{\"discretize\":" + Num(view.timings.discretize_ms) +
         ",\"compare_attrs\":" + Num(view.timings.compare_attrs_ms) +
         ",\"iunit_gen\":" + Num(view.timings.iunit_gen_ms) +
         ",\"topk\":" + Num(view.timings.topk_ms) +
         ",\"total\":" + Num(view.timings.total_ms) + "}";
  out += "}";
  return out;
}

std::string CadViewToCsv(const CadView& view) {
  std::string out = "pivot_value,iunit_rank,score,size,attribute,labels\n";
  auto field = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string quoted = "\"";
    for (char c : s) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };
  for (const CadViewRow& row : view.rows) {
    for (size_t u = 0; u < row.iunits.size(); ++u) {
      const IUnit& iu = row.iunits[u];
      for (size_t c = 0; c < iu.cells.size(); ++c) {
        out += field(row.pivot_value) + "," + std::to_string(u + 1) + "," +
               StringPrintf("%.3f", iu.score) + "," +
               std::to_string(iu.size()) + "," +
               field(c < view.compare_attrs.size()
                         ? view.compare_attrs[c].name
                         : std::string()) +
               "," + field(Join(iu.cells[c].labels, "|")) + "\n";
      }
    }
  }
  return out;
}

}  // namespace dbx
