// Tests for the gate-level circuit representation (Corollary 2 input form).

#include <gtest/gtest.h>

#include "tt/circuit.hpp"
#include "util/check.hpp"

namespace ovo::tt {
namespace {

TEST(Circuit, SingleGateOps) {
  struct Case {
    GateOp op;
    bool expected[4];  // indexed by (b<<1)|a
  };
  const Case cases[] = {
      {GateOp::kAnd, {false, false, false, true}},
      {GateOp::kOr, {false, true, true, true}},
      {GateOp::kXor, {false, true, true, false}},
      {GateOp::kNand, {true, true, true, false}},
      {GateOp::kNor, {true, false, false, false}},
      {GateOp::kXnor, {true, false, false, true}},
  };
  for (const Case& c : cases) {
    Circuit ckt(2);
    ckt.add_output(ckt.add_gate(c.op, 0, 1));
    const TruthTable t = ckt.to_truth_table();
    for (std::uint64_t a = 0; a < 4; ++a)
      EXPECT_EQ(t.get(a), c.expected[a]) << static_cast<int>(c.op);
  }
}

TEST(Circuit, UnaryGates) {
  Circuit ckt(1);
  ckt.add_output(ckt.add_gate(GateOp::kNot, 0));
  EXPECT_EQ(ckt.to_truth_table(), TruthTable::from_bits(1, "10"));

  Circuit buf(1);
  buf.add_output(buf.add_gate(GateOp::kBuf, 0));
  EXPECT_EQ(buf.to_truth_table(), TruthTable::from_bits(1, "01"));
}

TEST(Circuit, ConstantsNaryAndSharedNot) {
  Circuit ckt(3);
  EXPECT_EQ(ckt.add_gate(GateOp::kNot, 1), ckt.add_gate(GateOp::kNot, 1));
  EXPECT_EQ(ckt.literal(2, true), 2);
  EXPECT_EQ(ckt.add_nary(GateOp::kAnd, {0}), 0);
  ckt.add_output(ckt.add_nary(GateOp::kAnd, {}));  // constant true
  ckt.add_output(ckt.add_nary(GateOp::kOr, {}));   // constant false
  ckt.add_output(ckt.add_nary(GateOp::kAnd, {0, ckt.literal(1, false), 2}));
  ckt.add_output(ckt.add_gate(GateOp::kConst1));
  EXPECT_THROW(ckt.add_nary(GateOp::kXor, {0, 1}), util::CheckError);
  EXPECT_THROW(ckt.add_gate(GateOp::kConst0, 0), util::CheckError);
  const std::vector<TruthTable> t = ckt.to_truth_tables();
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], TruthTable::from_bits(3, "11111111"));
  EXPECT_EQ(t[1], TruthTable::from_bits(3, "00000000"));
  EXPECT_EQ(t[2], TruthTable::from_bits(3, "00000100"));  // x0 & !x1 & x2
  EXPECT_EQ(t[3], t[0]);
}

TEST(Circuit, FaninValidation) {
  Circuit ckt(2);
  EXPECT_THROW(ckt.add_gate(GateOp::kAnd, 0, 5), util::CheckError);
  EXPECT_THROW(ckt.add_gate(GateOp::kAnd, -1, 0), util::CheckError);
  EXPECT_THROW(ckt.add_gate(GateOp::kNot, 0, 1), util::CheckError);
  const int g = ckt.add_gate(GateOp::kAnd, 0, 1);
  EXPECT_EQ(g, 2);
  // Gates can feed later gates.
  EXPECT_EQ(ckt.add_gate(GateOp::kOr, g, 0), 3);
}

TEST(Circuit, OutputSelection) {
  Circuit ckt(2);
  const int a = ckt.add_gate(GateOp::kAnd, 0, 1);
  const int o = ckt.add_gate(GateOp::kOr, 0, 1);
  ckt.add_output(o);
  ckt.add_output(a);
  ckt.add_output(0);  // an input may be an output too
  EXPECT_EQ(ckt.outputs(), (std::vector<int>{o, a, 0}));
  const std::vector<TruthTable> t = ckt.to_truth_tables();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_TRUE(t[0].get(0b01));
  EXPECT_FALSE(t[1].get(0b01));
  EXPECT_TRUE(t[2].get(0b01));
  EXPECT_THROW(ckt.add_output(9), util::CheckError);
  EXPECT_THROW(ckt.to_truth_table(), util::CheckError);  // not one output
}

TEST(Circuit, NoOutputThrows) {
  Circuit ckt(2);
  ckt.add_gate(GateOp::kAnd, 0, 1);
  EXPECT_TRUE(ckt.to_truth_tables().empty());
  EXPECT_THROW(ckt.to_truth_table(), util::CheckError);
}

TEST(Circuit, RippleCarryOutMatchesArithmetic) {
  for (int bits = 1; bits <= 5; ++bits) {
    const TruthTable t = Circuit::ripple_carry_out(bits).to_truth_table();
    const std::uint64_t lim = std::uint64_t{1} << bits;
    for (std::uint64_t u = 0; u < lim; ++u)
      for (std::uint64_t v = 0; v < lim; ++v)
        EXPECT_EQ(t.get(u | (v << bits)), ((u + v) >> bits) & 1u)
            << "bits=" << bits << " u=" << u << " v=" << v;
  }
}

TEST(Circuit, ComparatorEq) {
  const TruthTable t = Circuit::comparator_eq(3).to_truth_table();
  for (std::uint64_t u = 0; u < 8; ++u)
    for (std::uint64_t v = 0; v < 8; ++v)
      EXPECT_EQ(t.get(u | (v << 3)), u == v);
}

// The word-parallel tables agree with a cell-by-cell evaluation of the
// gates on both sides of the 6-variable word boundary
// (tests/lowering_test.cpp holds the scalar reference).
TEST(Circuit, TabulateMatchesEval) {
  for (int bits = 2; bits <= 5; ++bits) {
    const Circuit ckt = Circuit::ripple_carry_out(bits);
    const TruthTable t = ckt.to_truth_table();
    EXPECT_EQ(t.num_vars(), 2 * bits);
    EXPECT_EQ(t, TruthTable::tabulate(2 * bits, [bits](std::uint64_t a) {
                const std::uint64_t lim = std::uint64_t{1} << bits;
                return (((a % lim) + (a >> bits)) >> bits) & 1u;
              }));
  }
}

}  // namespace
}  // namespace ovo::tt
