#include "tt/pla.hpp"

#include <charconv>
#include <sstream>

#include "tt/parse_error.hpp"
#include "util/check.hpp"

namespace ovo::tt {

namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

[[noreturn]] void fail(int line_no, const std::string& msg) {
  throw ParseError("PLA line " + std::to_string(line_no) + ": " + msg);
}

/// Strict decimal parse: the whole token, no sign, no trailing junk, and
/// in-range for long.  std::stoi would throw untyped std exceptions on
/// "12x" / "999...9" and silently accept "12 " — a header field must be a
/// clean number or a ParseError.
long parse_count(int line_no, const std::string& tok,
                 const std::string& what) {
  long v = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc{} || ptr != tok.data() + tok.size() || v < 0)
    fail(line_no, what + " is not a valid count: '" + tok + "'");
  return v;
}

}  // namespace

Circuit Pla::to_circuit() const {
  Circuit c(num_inputs);
  std::vector<int> products, lits, terms;
  for (const std::string& cube : cubes) {
    lits.clear();
    for (int i = 0; i < num_inputs; ++i) {
      const char ch = cube[static_cast<std::size_t>(i)];
      if (ch != '-') lits.push_back(c.literal(i, ch == '1'));
    }
    products.push_back(c.add_nary(GateOp::kAnd, lits));
  }
  for (int o = 0; o < num_outputs; ++o) {
    terms.clear();
    for (std::size_t p = 0; p < cubes.size(); ++p)
      if (outputs[p][static_cast<std::size_t>(o)]) terms.push_back(products[p]);
    c.add_output(c.add_nary(GateOp::kOr, terms));
  }
  return c;
}

TruthTable Pla::output_table(int output) const {
  OVO_CHECK(output >= 0 && output < num_outputs);
  return output_tables()[static_cast<std::size_t>(output)];
}

Pla parse_pla(const std::string& text) {
  Pla pla;
  bool saw_i = false, saw_o = false, ended = false;
  long declared_products = -1;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> tok = split_ws(line);
    if (tok.empty()) continue;
    if (ended) fail(line_no, "content after .e/.end");

    if (tok[0] == ".i") {
      if (tok.size() != 2) fail(line_no, ".i needs one argument");
      const long v = parse_count(line_no, tok[1], ".i");
      if (v < 1 || v > TruthTable::kMaxVars)
        fail(line_no, "unsupported input count");
      pla.num_inputs = static_cast<int>(v);
      saw_i = true;
    } else if (tok[0] == ".o") {
      if (tok.size() != 2) fail(line_no, ".o needs one argument");
      const long v = parse_count(line_no, tok[1], ".o");
      if (v < 1 || v > 1'000'000) fail(line_no, "unsupported output count");
      pla.num_outputs = static_cast<int>(v);
      saw_o = true;
    } else if (tok[0] == ".p") {
      if (tok.size() != 2) fail(line_no, ".p needs one argument");
      declared_products = parse_count(line_no, tok[1], ".p");
    } else if (tok[0] == ".ilb") {
      pla.input_names.assign(tok.begin() + 1, tok.end());
    } else if (tok[0] == ".ob") {
      pla.output_names.assign(tok.begin() + 1, tok.end());
    } else if (tok[0] == ".e" || tok[0] == ".end") {
      ended = true;
    } else if (tok[0][0] == '.') {
      fail(line_no, "unsupported directive '" + tok[0] + "'");
    } else {
      // Product line.
      if (!saw_i || !saw_o) fail(line_no, "product before .i/.o header");
      if (tok.size() != 2)
        fail(line_no, "product line needs <inputs> <outputs>");
      const std::string& cube = tok[0];
      const std::string& outs = tok[1];
      if (static_cast<int>(cube.size()) != pla.num_inputs)
        fail(line_no, "input cube has wrong width");
      if (static_cast<int>(outs.size()) != pla.num_outputs)
        fail(line_no, "output part has wrong width");
      for (const char c : cube)
        if (c != '0' && c != '1' && c != '-')
          fail(line_no, "invalid input cube character");
      std::vector<bool> on(static_cast<std::size_t>(pla.num_outputs));
      for (int o = 0; o < pla.num_outputs; ++o) {
        const char c = outs[static_cast<std::size_t>(o)];
        if (c != '0' && c != '1' && c != '-' && c != '~')
          fail(line_no, "invalid output character");
        on[static_cast<std::size_t>(o)] = (c == '1');
      }
      pla.cubes.push_back(cube);
      pla.outputs.push_back(std::move(on));
    }
  }
  if (!saw_i || !saw_o) fail(line_no, "missing .i/.o header");
  if (!ended) fail(line_no, "truncated file: missing .e/.end");
  if (declared_products >= 0 &&
      declared_products != static_cast<long>(pla.cubes.size()))
    fail(line_no, ".p count disagrees with product lines");
  if (!pla.input_names.empty() &&
      static_cast<int>(pla.input_names.size()) != pla.num_inputs)
    fail(line_no, ".ilb count disagrees with .i");
  if (!pla.output_names.empty() &&
      static_cast<int>(pla.output_names.size()) != pla.num_outputs)
    fail(line_no, ".ob count disagrees with .o");
  return pla;
}

std::string to_pla(const Pla& pla) {
  std::ostringstream os;
  os << ".i " << pla.num_inputs << "\n";
  os << ".o " << pla.num_outputs << "\n";
  if (!pla.input_names.empty()) {
    os << ".ilb";
    for (const std::string& n : pla.input_names) os << ' ' << n;
    os << "\n";
  }
  if (!pla.output_names.empty()) {
    os << ".ob";
    for (const std::string& n : pla.output_names) os << ' ' << n;
    os << "\n";
  }
  os << ".p " << pla.cubes.size() << "\n";
  for (std::size_t p = 0; p < pla.cubes.size(); ++p) {
    os << pla.cubes[p] << ' ';
    for (const bool b : pla.outputs[p]) os << (b ? '1' : '0');
    os << "\n";
  }
  os << ".e\n";
  return os.str();
}

}  // namespace ovo::tt
