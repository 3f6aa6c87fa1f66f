#include "cfd/case.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace xg::cfd {
namespace {

TEST(Case, FormatParseRoundTrip) {
  CfdCase c;
  c.name = "cups-test";
  c.steps = 321;
  c.mesh.nx = 17;
  c.mesh.house_x0 = 61.5;
  c.solver.dt_s = 0.125;
  c.solver.screen_drag = 3.3;
  c.boundary.wind_speed_ms = 5.75;
  c.boundary.wind_dir_deg = 123.0;
  auto back = ParseCase(FormatCase(c));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().name, "cups-test");
  EXPECT_EQ(back.value().steps, 321);
  EXPECT_EQ(back.value().mesh.nx, 17);
  EXPECT_DOUBLE_EQ(back.value().mesh.house_x0, 61.5);
  EXPECT_DOUBLE_EQ(back.value().solver.dt_s, 0.125);
  EXPECT_DOUBLE_EQ(back.value().solver.screen_drag, 3.3);
  EXPECT_DOUBLE_EQ(back.value().boundary.wind_speed_ms, 5.75);
}

TEST(Case, DefaultsSurviveRoundTrip) {
  auto back = ParseCase(FormatCase(CfdCase{}));
  ASSERT_TRUE(back.ok());
  const CfdCase d;
  EXPECT_EQ(back.value().mesh.nx, d.mesh.nx);
  EXPECT_EQ(back.value().solver.poisson_iters, d.solver.poisson_iters);
}

TEST(Case, PoissonPassesMustBePositive) {
  EXPECT_FALSE(ParseCase("solver.poisson_iters = 0\n").ok());
  EXPECT_FALSE(ParseCase("solver.poisson_iters = -3\n").ok());
  auto two = ParseCase("solver.poisson_iters = 2\n");
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two.value().solver.poisson_iters, 2);
}

TEST(Case, RetiredOmegaKeyRejected) {
  // The omega key belongs to the retired iterative solver: a case file
  // naming it is stale and is rejected rather than silently ignored.
  auto r = ParseCase("solver.poisson_omega = 1.7\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("poisson_omega"), std::string::npos);
}

TEST(Case, UnknownKeyRejected) {
  std::string text = FormatCase(CfdCase{});
  text += "solver.magic_flux_capacitor = 1.21\n";
  auto r = ParseCase(text);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("magic_flux_capacitor"),
            std::string::npos);
}

TEST(Case, BadNumbersRejectedNamingTheKey) {
  // Each of these used to throw out of std::stod or be read silently.
  for (const char* value :
       {"abc", "1e999", "-1e999", "3x", "nan", "inf", ""}) {
    auto r =
        ParseCase(std::string("boundary.wind_speed_ms = ") + value + "\n");
    ASSERT_FALSE(r.ok()) << value;
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument) << value;
    EXPECT_NE(r.status().message().find("boundary.wind_speed_ms"),
              std::string::npos)
        << value;
  }
  // An integral field takes a number that fits its type, nothing else.
  EXPECT_FALSE(ParseCase("mesh.nx = 12.5x\n").ok());
  EXPECT_FALSE(ParseCase("mesh.nx = 1e12\n").ok());
  auto ok = ParseCase("mesh.nx = 2e1\nsteps = 7\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().mesh.nx, 20);
  EXPECT_EQ(ok.value().steps, 7);
}

TEST(Case, MalformedLineRejected) {
  EXPECT_FALSE(ParseCase("this is not a key value pair\n").ok());
}

TEST(Case, CommentsAndBlankLinesIgnored) {
  std::string text = "# a comment\n\n" + FormatCase(CfdCase{});
  EXPECT_TRUE(ParseCase(text).ok());
}

TEST(Case, PartialFileUsesDefaults) {
  auto r = ParseCase("boundary.wind_speed_ms = 9.0\n");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().boundary.wind_speed_ms, 9.0);
  EXPECT_EQ(r.value().mesh.nx, CfdCase{}.mesh.nx);
}

TEST(Case, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "xg_case_test.cfg";
  CfdCase c;
  c.boundary.wind_speed_ms = 7.25;
  ASSERT_TRUE(WriteCaseFile(c, path).ok());
  auto back = ReadCaseFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back.value().boundary.wind_speed_ms, 7.25);
  std::remove(path.c_str());
}

TEST(Case, ReadMissingFileFails) {
  EXPECT_FALSE(ReadCaseFile("/nonexistent/path/case.cfg").ok());
}

TEST(Case, BoundaryFromTelemetry) {
  const Boundary b = BoundaryFromTelemetry(3.5, 290.0, 21.0, 23.5);
  EXPECT_DOUBLE_EQ(b.wind_speed_ms, 3.5);
  EXPECT_DOUBLE_EQ(b.wind_dir_deg, 290.0);
  EXPECT_DOUBLE_EQ(b.exterior_temp_c, 21.0);
  EXPECT_DOUBLE_EQ(b.interior_temp_c, 23.5);
}

}  // namespace
}  // namespace xg::cfd
