#include "util/line_codec.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mapcq::util {

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, std::string_view text) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot open " + path);
  out << text;
  if (!out) throw std::runtime_error("write failed for " + path);
}

namespace lines {

line_reader::line_reader(std::string_view text)
    : text_(text),
      lines_left_(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) +
                  (!text.empty() && text.back() != '\n')) {}

void line_reader::fail(const char* what) const {
  throw std::runtime_error(std::string(format_) + " line " + std::to_string(line_no_) + ", " +
                           std::string(key_) + ": " + what);
}

std::string_view line_reader::next_key() const {
  if (lines_left_ == 0) return {};
  line_reader peek = *this;
  peek.open("");
  return peek.token();
}

void line_reader::open(std::string_view key) {
  key_ = key.empty() ? "row" : key;
  if (format_.empty()) format_ = key;
  ++line_no_;
  if (lines_left_ == 0) fail("missing");
  --lines_left_;
  const std::size_t end = std::min(text_.find('\n', next_), text_.size());
  row_ = text_.substr(next_, end - next_);
  next_ = end + 1;
  at_ = 0;
  stopped_ = false;
  if (!key.empty() && token() != key) fail("expected here");
}

}  // namespace lines
}  // namespace mapcq::util
