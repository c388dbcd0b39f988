// Tests for the BLIF netlist reader and its integration with the
// ordering pipeline.

#include <gtest/gtest.h>

#include "core/minimize.hpp"
#include "core/multi_output.hpp"
#include "tt/blif.hpp"
#include "tt/function_zoo.hpp"
#include "tt/parse_error.hpp"
#include "util/check.hpp"

namespace ovo::tt {
namespace {

const char* kFullAdder = R"(# full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b axb
01 1
10 1
.names axb cin sum
01 1
10 1
.names a b ab
11 1
.names axb cin p
11 1
.names ab p cout
1- 1
-1 1
.end
)";

TEST(Blif, FullAdderSemantics) {
  const BlifModel m = parse_blif(kFullAdder);
  EXPECT_EQ(m.name, "fa");
  EXPECT_EQ(m.inputs.size(), 3u);
  EXPECT_EQ(m.outputs, (std::vector<std::string>{"sum", "cout"}));
  const std::vector<TruthTable> t = m.output_tables();
  for (std::uint64_t a = 0; a < 8; ++a) {
    const int bits = static_cast<int>((a & 1) + ((a >> 1) & 1) + ((a >> 2) & 1));
    EXPECT_EQ(t[0].get(a), (bits & 1) != 0) << a;
    EXPECT_EQ(t[1].get(a), bits >= 2) << a;
  }
}

TEST(Blif, OutputTables) {
  const BlifModel m = parse_blif(kFullAdder);
  const auto tables = m.output_tables();
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0], parity(3));       // sum
  EXPECT_EQ(tables[1], majority(3));     // carry of 3 = majority
}

TEST(Blif, OffSetCover) {
  // NOR via OFF-set rows: output 0 when any input is 1.
  const BlifModel m = parse_blif(
      ".inputs a b\n.outputs f\n.names a b f\n1- 0\n-1 0\n.end\n");
  EXPECT_EQ(m.output_tables()[0], TruthTable::from_bits(2, "1000"));
}

TEST(Blif, Constants) {
  const BlifModel m = parse_blif(
      ".inputs a\n.outputs t z g\n.names t\n1\n.names z\n"
      "\n.names a t g\n11 1\n.end\n");
  const std::vector<TruthTable> t = m.output_tables();
  EXPECT_EQ(t[0], TruthTable::from_bits(1, "11"));
  EXPECT_EQ(t[1], TruthTable::from_bits(1, "00"));  // empty cover = 0
  EXPECT_EQ(t[2], TruthTable::from_bits(1, "01"));
}

TEST(Blif, OutOfOrderDefinitionsWork) {
  // g defined before its fanin h.
  const BlifModel m = parse_blif(
      ".inputs a\n.outputs g\n.names h g\n1 1\n.names a h\n0 1\n.end\n");
  EXPECT_EQ(m.output_tables()[0], TruthTable::from_bits(1, "10"));
}

TEST(Blif, LineContinuation) {
  const BlifModel m = parse_blif(
      ".inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n");
  EXPECT_EQ(m.inputs.size(), 2u);
  EXPECT_EQ(m.output_tables()[0], TruthTable::from_bits(2, "0001"));
}

TEST(Blif, Errors) {
  EXPECT_THROW(parse_blif(""), util::CheckError);
  EXPECT_THROW(parse_blif(".inputs a\n.names a f\n1 1\n"),
               util::CheckError);  // no outputs
  EXPECT_THROW(parse_blif(".inputs a\n.outputs f\n.latch a f\n.end\n"),
               util::CheckError);
  EXPECT_THROW(parse_blif(".inputs a\n.outputs f\n11 1\n.end\n"),
               util::CheckError);  // row outside .names
  EXPECT_THROW(parse_blif(".inputs a\n.outputs f\n.names a f\n1x 1\n.end\n"),
               util::CheckError);
  EXPECT_THROW(
      parse_blif(".inputs a b\n.outputs f\n.names a b f\n11 1\n1- 0\n.end\n"),
      util::CheckError);  // mixed output column
  EXPECT_THROW(parse_blif(".inputs a\n.outputs f\n.names q f\n1 1\n.end\n"),
               ParseError);  // undefined signal
  EXPECT_THROW(parse_blif(".inputs a\n.outputs f\n.names g f\n1 1\n"
                          ".names f g\n1 1\n.end\n"),
               ParseError);  // combinational cycle
}

// Malformed netlists must raise the typed ParseError (a subclass of
// util::CheckError, so the expectations above keep holding too).
TEST(Blif, MalformedFilesThrowTypedError) {
  // Truncated: no .end terminator.
  EXPECT_THROW(
      parse_blif(".inputs a\n.outputs f\n.names a f\n1 1\n"), ParseError);
  // Truncated: the file ends in the middle of a continuation line.
  EXPECT_THROW(parse_blif(".inputs a\n.outputs f\n.names a f \\"),
               ParseError);
  // Two covers driving the same signal: one of them would silently win.
  EXPECT_THROW(parse_blif(".inputs a b\n.outputs f\n.names a f\n1 1\n"
                          ".names b f\n1 1\n.end\n"),
               ParseError);
}

std::string parse_error_of(const std::string& text) {
  try {
    parse_blif(text);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "parsed";
}

// parse_blif compiles the cones of the primary outputs: an undefined or
// cyclic signal that a cube in a cone tests is a ParseError naming the
// `.names` line that tests it (or the `.outputs` line).
TEST(Blif, ConeDefectsNameTheirLine) {
  EXPECT_EQ(parse_error_of(".model x\n.inputs a\n.outputs f\n"
                           ".names a ghost f\n11 1\n.end\n"),
            "BLIF line 4: undefined signal 'ghost'");
  EXPECT_EQ(parse_error_of(".inputs a\n.outputs f\n.names a g f\n11 1\n"
                           ".names f a g\n1- 1\n.end\n"),
            "BLIF line 5: combinational cycle through 'f'");
  EXPECT_EQ(parse_error_of(".inputs a\n.outputs g\n.names g g\n1 1\n.end\n"),
            "BLIF line 3: combinational cycle through 'g'");
  EXPECT_EQ(parse_error_of(".inputs a\n.outputs a f\n.end\n"),
            "BLIF line 2: undefined signal 'f'");
}

// Nothing resolves a signal outside every cone, or a fanin whose every
// column is '-': the same defects there still parse.
TEST(Blif, DefectsOutsideTheConesParse) {
  const BlifModel m = parse_blif(
      ".inputs a b\n.outputs f\n.names a ghost f\n1- 1\n"
      ".names ghost2 h\n1 1\n.names p q\n1 1\n.names q p\n1 1\n.end\n");
  EXPECT_EQ(m.output_tables()[0], TruthTable::from_bits(2, "0101"));
}

TEST(Blif, TooManyInputsIsAParseError) {
  std::string names;
  for (int i = 1; i < TruthTable::kMaxVars; ++i)
    names += " i" + std::to_string(i);
  // 26 inputs parse; the 27th, on a later .inputs line, names that line.
  EXPECT_EQ(parse_blif(".inputs i0" + names + "\n.outputs i0\n.end\n")
                .inputs.size(),
            26u);
  EXPECT_EQ(parse_error_of(".inputs i0" + names +
                           "\n.inputs extra\n.outputs i0\n.end\n"),
            "BLIF line 2: more than 26 primary inputs");
}

TEST(Blif, ParseErrorIsACheckError) {
  try {
    parse_blif(".inputs a\n.outputs f\n.gate and2 f\n.end\n");
    FAIL() << "expected ParseError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("BLIF line 3"), std::string::npos);
  }
}

TEST(Blif, PipelineToOptimalOrdering) {
  const BlifModel m = parse_blif(kFullAdder);
  const auto shared = core::fs_minimize_shared(m.output_tables());
  EXPECT_GT(shared.min_internal_nodes, 0u);
  EXPECT_EQ(core::shared_size_for_order(m.output_tables(),
                                        shared.order_root_first),
            shared.min_internal_nodes);
}

}  // namespace
}  // namespace ovo::tt
