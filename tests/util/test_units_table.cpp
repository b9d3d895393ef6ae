#include <gtest/gtest.h>

#include <fstream>
#include <limits>

#include "util/table.hpp"
#include "util/units.hpp"

namespace phi::util {
namespace {

TEST(Units, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.150), 150 * kMillisecond);
  EXPECT_NEAR(to_seconds(kSecond), 1.0, 1e-12);
  EXPECT_NEAR(to_millis(150 * kMillisecond), 150.0, 1e-9);
  EXPECT_EQ(milliseconds(5), 5'000'000);
  EXPECT_EQ(microseconds(3), 3'000);
  EXPECT_EQ(seconds(2), 2'000'000'000);
}

TEST(Units, FromSecondsSaturatesAtTheDurationRange) {
  constexpr Duration kMax = std::numeric_limits<Duration>::max();
  constexpr Duration kMin = std::numeric_limits<Duration>::min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Read through volatile so the conversions run at run time: a compiler
  // folding a constant out-of-range cast may saturate on its own.
  const volatile double in[] = {1e12, kInf, -1e12, -kInf, 9e9, -9e9};
  EXPECT_EQ(from_seconds(in[0]), kMax);  // ~31,700 years
  EXPECT_EQ(from_seconds(in[1]), kMax);
  EXPECT_EQ(from_seconds(in[2]), kMin);
  EXPECT_EQ(from_seconds(in[3]), kMin);
  // 9e9 s (~285 years) is still in range and converts exactly.
  EXPECT_EQ(from_seconds(in[4]), 9'000'000'000 * kSecond);
  EXPECT_EQ(from_seconds(in[5]), -9'000'000'000 * kSecond);
}

TEST(Units, TransmissionTime) {
  // 1500 bytes at 15 Mbps = 12000 bits / 15e6 bps = 800 us.
  EXPECT_EQ(transmission_time(1500, 15.0 * kMbps), 800 * kMicrosecond);
  // 40-byte ACK at 1 Gbps = 320 ns.
  EXPECT_EQ(transmission_time(40, 1.0 * kGbps), 320);
}

TEST(Units, BdpBytes) {
  // 15 Mbps x 150 ms = 2.25 Mbit = 281250 bytes.
  EXPECT_EQ(bdp_bytes(15.0 * kMbps, milliseconds(150)), 281250);
}

TEST(Units, FormatRate) {
  EXPECT_EQ(format_rate(15.0 * kMbps), "15.00 Mbps");
  EXPECT_EQ(format_rate(2.5 * kGbps), "2.50 Gbps");
  EXPECT_EQ(format_rate(512.0 * kKbps), "512.00 Kbps");
  EXPECT_EQ(format_rate(100.0), "100 bps");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(format_duration(seconds(2)), "2.000 s");
  EXPECT_EQ(format_duration(milliseconds(150)), "150.000 ms");
  EXPECT_EQ(format_duration(microseconds(12)), "12.000 us");
  EXPECT_EQ(format_duration(42), "42 ns");
}

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.header({"A", "LongHeader"});
  t.row({"xxxx", "1"});
  t.row({"y", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("A     LongHeader"), std::string::npos);
  EXPECT_NE(s.find("----  ----------"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, NumAndPct) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::pct(0.0392, 2), "3.92%");
  EXPECT_EQ(TextTable::pct(0.5, 0), "50%");
}

TEST(Csv, WritesAndEscapes) {
  const std::string path = ::testing::TempDir() + "/phi_test.csv";
  ASSERT_TRUE(write_csv(path, {"a", "b"},
                        {{"1", "plain"}, {"2", "with,comma"},
                         {"3", "with\"quote"}}));
  std::ifstream f(path);
  std::string all((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("a,b\n"), std::string::npos);
  EXPECT_NE(all.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(all.find("\"with\"\"quote\""), std::string::npos);
}

}  // namespace
}  // namespace phi::util
