#include "tt/blif.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "tt/parse_error.hpp"
#include "util/check.hpp"

namespace ovo::tt {

namespace {

[[noreturn]] void fail(int line_no, const std::string& msg) {
  throw ParseError("BLIF line " + std::to_string(line_no) + ": " + msg);
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// One `.names` block: a single-output cover.
struct Cover {
  int line = 0;                     ///< the .names line
  std::vector<std::string> fanins;  ///< signal names, in .names order
  std::vector<std::string> cubes;   ///< input planes, chars in {0,1,-}
  char out_value = '1';  ///< '1': cubes are the ON-set; '0': the OFF-set
};

using Index = std::unordered_map<std::string, std::size_t>;

/// Compiles the cones of m.outputs into m.circuit, each cover after the
/// fanins its cubes test.  The depth-first walk keeps its path on the heap,
/// so a long chain of covers cannot overflow the stack.
void compile_cones(BlifModel& m, const std::vector<Cover>& covers,
                   const Index& cover_of, const std::vector<int>& output_line) {
  Index input_of;
  for (std::size_t i = 0; i < m.inputs.size(); ++i)
    input_of.emplace(m.inputs[i], i);
  Circuit& c = m.circuit = Circuit(static_cast<int>(m.inputs.size()));
  constexpr int kUnvisited = -1, kOnPath = -2;
  std::vector<int> signal(covers.size(), kUnvisited);
  std::vector<std::pair<std::size_t, std::size_t>> path;  // cover, fanin
  // The signal `name` tested at `line`; an unvisited cover joins the path.
  const auto resolve = [&](const std::string& name, int line) -> int {
    if (const auto it = input_of.find(name); it != input_of.end())
      return static_cast<int>(it->second);
    const auto it = cover_of.find(name);
    if (it == cover_of.end()) fail(line, "undefined signal '" + name + "'");
    int& s = signal[it->second];
    if (s == kOnPath) fail(line, "combinational cycle through '" + name + "'");
    if (s == kUnvisited) {
      s = kOnPath;
      path.emplace_back(it->second, 0);
    }
    return s;
  };
  std::vector<int> cubes, lits;
  for (std::size_t o = 0; o < m.outputs.size(); ++o) {
    resolve(m.outputs[o], output_line[o]);
    while (!path.empty()) {
      const std::size_t k = path.back().first;
      const std::size_t f = path.back().second++;
      const Cover& cover = covers[k];
      if (f < cover.fanins.size()) {
        const auto tests = [f](const std::string& q) { return q[f] != '-'; };
        if (std::any_of(cover.cubes.begin(), cover.cubes.end(), tests))
          resolve(cover.fanins[f], cover.line);
        continue;
      }
      cubes.clear();
      for (const std::string& cube : cover.cubes) {
        lits.clear();
        for (std::size_t i = 0; i < cube.size(); ++i)
          if (cube[i] != '-')
            lits.push_back(c.literal(resolve(cover.fanins[i], cover.line),
                                     cube[i] == '1'));
        cubes.push_back(c.add_nary(GateOp::kAnd, lits));
      }
      const int covered = c.add_nary(GateOp::kOr, cubes);
      signal[k] = c.literal(covered, cover.out_value == '1');
      path.pop_back();
    }
    c.add_output(resolve(m.outputs[o], output_line[o]));
  }
}

}  // namespace

BlifModel parse_blif(const std::string& text) {
  BlifModel model;
  bool ended = false;
  std::vector<Cover> covers;
  Cover* current = nullptr;
  Index cover_of;
  std::vector<int> output_line;

  // Pre-join continuation lines.
  std::vector<std::pair<int, std::string>> lines;
  {
    std::istringstream is(text);
    std::string raw;
    int line_no = 0;
    std::string pending;
    int pending_line = 0;
    while (std::getline(is, raw)) {
      ++line_no;
      const std::size_t hash = raw.find('#');
      if (hash != std::string::npos) raw.resize(hash);
      if (!raw.empty() && raw.back() == '\\') {
        raw.pop_back();
        if (pending.empty()) pending_line = line_no;
        pending += raw + ' ';
        continue;
      }
      if (!pending.empty()) {
        lines.emplace_back(pending_line, pending + raw);
        pending.clear();
      } else {
        lines.emplace_back(line_no, raw);
      }
    }
    if (!pending.empty())
      fail(pending_line, "truncated file: line continuation at end of file");
  }

  for (const auto& [line_no, line] : lines) {
    const std::vector<std::string> tok = split_ws(line);
    if (tok.empty()) continue;
    if (ended) fail(line_no, "content after .end");

    if (tok[0] == ".model") {
      if (tok.size() >= 2) model.name = tok[1];
      current = nullptr;
    } else if (tok[0] == ".inputs") {
      model.inputs.insert(model.inputs.end(), tok.begin() + 1, tok.end());
      if (model.inputs.size() > TruthTable::kMaxVars)
        fail(line_no, "more than " + std::to_string(TruthTable::kMaxVars) +
                          " primary inputs");
      current = nullptr;
    } else if (tok[0] == ".outputs") {
      model.outputs.insert(model.outputs.end(), tok.begin() + 1, tok.end());
      output_line.resize(model.outputs.size(), line_no);
      current = nullptr;
    } else if (tok[0] == ".names") {
      if (tok.size() < 2) fail(line_no, ".names needs an output signal");
      if (!cover_of.emplace(tok.back(), covers.size()).second)
        fail(line_no, "duplicate .names for '" + tok.back() + "'");
      Cover cover;
      cover.line = line_no;
      cover.fanins.assign(tok.begin() + 1, tok.end() - 1);
      covers.push_back(std::move(cover));
      current = &covers.back();
    } else if (tok[0] == ".end") {
      ended = true;
      current = nullptr;
    } else if (tok[0] == ".latch" || tok[0] == ".subckt" ||
               tok[0] == ".gate") {
      fail(line_no, "sequential/hierarchical BLIF is not supported");
    } else if (tok[0][0] == '.') {
      fail(line_no, "unsupported directive '" + tok[0] + "'");
    } else {
      // Cover row.
      if (current == nullptr) fail(line_no, "cover row outside .names");
      std::string plane;
      char out_char;
      if (current->fanins.empty()) {
        if (tok.size() != 1 || tok[0].size() != 1)
          fail(line_no, "constant cover row must be a single 0/1");
        plane = "";
        out_char = tok[0][0];
      } else {
        if (tok.size() != 2)
          fail(line_no, "cover row needs <plane> <output>");
        plane = tok[0];
        if (tok[1].size() != 1) fail(line_no, "output column must be 0/1");
        out_char = tok[1][0];
      }
      if (out_char != '0' && out_char != '1')
        fail(line_no, "output column must be 0/1");
      if (plane.size() != current->fanins.size())
        fail(line_no, "cover row width disagrees with .names fanins");
      for (const char c : plane)
        if (c != '0' && c != '1' && c != '-')
          fail(line_no, "invalid cover character");
      if (current->cubes.empty()) {
        current->out_value = out_char;
      } else if (current->out_value != out_char) {
        fail(line_no, "mixed output values in one cover");
      }
      current->cubes.push_back(plane);
    }
  }
  if (model.inputs.empty()) throw ParseError("BLIF: no .inputs");
  if (model.outputs.empty()) throw ParseError("BLIF: no .outputs");
  if (!ended) throw ParseError("BLIF: truncated file: missing .end");
  compile_cones(model, covers, cover_of, output_line);
  return model;
}

}  // namespace ovo::tt
