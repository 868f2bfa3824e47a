#include "data/csv.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <vector>

namespace dcmt {
namespace data {
namespace {

/// One separated cell and its 1-based character column in the line.
struct Cell {
  std::string_view text;
  std::size_t column;
};

std::vector<Cell> SplitCells(std::string_view line, char sep) {
  std::vector<Cell> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = line.find(sep, start);
    out.push_back({line.substr(start, end - start), start + 1});
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return out;
}

/// The whole of `text` must parse as a T (no sign prefix "+", no
/// whitespace, no trailing junk), as eval::Flags parses flag values.
template <typename T>
bool ParseWhole(std::string_view text, T* value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

}  // namespace

bool WriteCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;

  // Header: schema-bearing column names.
  out << "#dataset=" << dataset.name() << "\n";
  bool first = true;
  auto emit = [&](const std::string& col) {
    if (!first) out << ",";
    out << col;
    first = false;
  };
  for (const auto& f : dataset.schema().deep_fields) {
    emit("deep:" + f.name + ":" + std::to_string(f.vocab_size));
  }
  for (const auto& f : dataset.schema().wide_fields) {
    emit("wide:" + f.name + ":" + std::to_string(f.vocab_size));
  }
  emit("click");
  emit("conversion");
  emit("oracle_conversion");
  emit("true_ctr");
  emit("true_cvr");
  emit("user_index");
  emit("item_index");
  out << "\n";

  for (const Example& e : dataset.examples()) {
    first = true;
    for (int id : e.deep_ids) emit(std::to_string(id));
    for (int id : e.wide_ids) emit(std::to_string(id));
    emit(std::to_string(static_cast<int>(e.click)));
    emit(std::to_string(static_cast<int>(e.conversion)));
    emit(std::to_string(static_cast<int>(e.oracle_conversion)));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", e.true_ctr);
    emit(buf);
    std::snprintf(buf, sizeof(buf), "%.6g", e.true_cvr);
    emit(buf);
    emit(std::to_string(e.user_index));
    emit(std::to_string(e.item_index));
    out << "\n";
  }
  return static_cast<bool>(out);
}

bool ReadCsv(const std::string& path, Dataset* dataset) {
  std::ifstream in(path);
  if (!in) return false;

  std::int64_t line_no = 0;
  std::string line;
  // Prints "path:line:column: what" for a cell of the current line and
  // fails the read; the caller reports the file as unreadable.
  const auto reject = [&](const Cell& cell, const std::string& what) {
    std::fprintf(stderr, "%s:%lld:%zu: %s\n", path.c_str(),
                 static_cast<long long>(line_no), cell.column, what.c_str());
    return false;
  };
  const auto next_line = [&] {
    if (!std::getline(in, line)) return false;
    ++line_no;
    return true;
  };

  if (!next_line()) return false;
  std::string name = "csv";
  if (line.rfind("#dataset=", 0) == 0) {
    name = line.substr(9);
    if (!next_line()) return false;
  }

  FeatureSchema schema;
  const std::vector<Cell> header = SplitCells(line, ',');
  for (const Cell& col : header) {
    const std::vector<Cell> parts = SplitCells(col.text, ':');
    if (parts.size() != 3 || (parts[0].text != "deep" && parts[0].text != "wide")) {
      continue;
    }
    int vocab = 0;
    if (!ParseWhole(parts[2].text, &vocab) || vocab <= 0) {
      return reject(col, "vocab size '" + std::string(parts[2].text) +
                             "' is not a positive integer");
    }
    auto& fields =
        parts[0].text == "deep" ? schema.deep_fields : schema.wide_fields;
    fields.push_back({std::string(parts[1].text), vocab});
  }
  const std::size_t n_deep = schema.deep_fields.size();
  const std::size_t n_wide = schema.wide_fields.size();
  const std::size_t expected_cols = n_deep + n_wide + 7;
  if (header.size() != expected_cols) {
    return reject(header.front(),
                  "header has " + std::to_string(header.size()) +
                      " columns; its schema implies " +
                      std::to_string(expected_cols));
  }

  std::vector<Example> examples;
  while (next_line()) {
    if (line.empty()) continue;
    const std::vector<Cell> cells = SplitCells(line, ',');
    if (cells.size() != expected_cols) {
      return reject(cells.front(), "row has " + std::to_string(cells.size()) +
                                       " cells; expected " +
                                       std::to_string(expected_cols));
    }
    std::size_t c = 0;
    // Parses the next cell as a whole T, or rejects it as `what`.
    const auto parse = [&](auto* value, const char* what) {
      const Cell& cell = cells[c++];
      if (ParseWhole(cell.text, value)) return true;
      return reject(cell, std::string("cannot parse ") + what + " '" +
                              std::string(cell.text) + "'");
    };
    const auto parse_id = [&](const FieldSpec& field, std::vector<int>* ids) {
      int id = 0;
      if (!parse(&id, "feature id")) return false;
      if (id < 0 || id >= field.vocab_size) {
        return reject(cells[c - 1], "id " + std::to_string(id) + " of field '" +
                                        field.name + "' is outside [0, " +
                                        std::to_string(field.vocab_size) + ")");
      }
      ids->push_back(id);
      return true;
    };
    const auto parse_label = [&](std::uint8_t* label, const char* what) {
      int value = 0;
      if (!parse(&value, what)) return false;
      if (value != 0 && value != 1) {
        return reject(cells[c - 1], std::string(what) + " must be 0 or 1, not " +
                                        std::to_string(value));
      }
      *label = static_cast<std::uint8_t>(value);
      return true;
    };

    Example e;
    e.deep_ids.reserve(n_deep);
    for (const FieldSpec& f : schema.deep_fields) {
      if (!parse_id(f, &e.deep_ids)) return false;
    }
    e.wide_ids.reserve(n_wide);
    for (const FieldSpec& f : schema.wide_fields) {
      if (!parse_id(f, &e.wide_ids)) return false;
    }
    if (!parse_label(&e.click, "click") ||
        !parse_label(&e.conversion, "conversion") ||
        !parse_label(&e.oracle_conversion, "oracle_conversion")) {
      return false;
    }
    if (e.conversion == 1 && e.click == 0) {
      return reject(cells[c - 2], "conversion without a click");
    }
    if (!parse(&e.true_ctr, "true_ctr") || !parse(&e.true_cvr, "true_cvr") ||
        !parse(&e.user_index, "user_index") ||
        !parse(&e.item_index, "item_index")) {
      return false;
    }
    examples.push_back(std::move(e));
  }
  *dataset = Dataset(name, std::move(schema), std::move(examples));
  return true;
}

}  // namespace data
}  // namespace dcmt
