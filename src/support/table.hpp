#pragma once
// ASCII table rendering in the style of the paper's tables.
//
// Every bench binary regenerates one of the paper's tables; this renderer
// produces aligned, boxed output with optional title and column alignment.

#include <string>
#include <vector>

namespace gpudiff::support {

enum class Align { Left, Right, Center };

class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  /// Define the header row. Alignment applies to the whole column.
  void set_header(std::vector<std::string> header, std::vector<Align> align = {});

  void add_row(std::vector<std::string> row);
  /// A horizontal rule between body rows (e.g. before a Total row).
  void add_rule();

  /// Render with unicode-free ASCII borders.
  std::string render() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool rule = false;
  };
  std::string title_;
  std::vector<std::string> header_;
  std::vector<Align> align_;
  std::vector<Row> rows_;
};

}  // namespace gpudiff::support
