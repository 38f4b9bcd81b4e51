// Pins what the document -> net front end produces: the exact bytes that
// the example models turn into, and the net's derived indices (consumers,
// affected sets, conflict-free bits) against a dense oracle that shares no
// code with TimePetriNet::validate().
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "builder/tpn_builder.hpp"
#include "core/project.hpp"
#include "pnml/ezspec_io.hpp"
#include "pnml/pnml_io.hpp"
#include "workload/generator.hpp"

namespace ezrt {
namespace {

[[nodiscard]] std::string example_document(const std::string& model) {
  std::ifstream in(std::string(EZRT_EXAMPLE_SPECS_DIR) + "/" + model +
                   ".ezspec");
  EXPECT_TRUE(in.good()) << model;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

[[nodiscard]] spec::Specification example_spec(const std::string& model) {
  return pnml::read_ezspec(example_document(model)).value();
}

/// 64-bit FNV-1a: with the length, it pins an output's bytes without
/// checking in large golden files.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Golden {
  const char* model;
  const char* file;  ///< "net.pnml" or a generated C file's name
  std::size_t size;
  std::uint64_t fnv;
};

// Recorded from the example models as checked in; the UAV code comes from
// the complete search (PruningMode::kNone), as docs/multiprocessor.md runs
// it.
constexpr Golden kGolden[] = {
    {"harmonic_u40", "net.pnml", 21275u, 0x9a52c6469f54ab2full},
    {"harmonic_u40", "schedule.h", 975u, 0xb5a19bc3e2316dcdull},
    {"harmonic_u40", "dispatcher.c", 2390u, 0xe47241570fb3fc16ull},
    {"harmonic_u40", "tasks.c", 628u, 0xa8300c1f5360ee85ull},
    {"mine_pump", "net.pnml", 58172u, 0xf1aae13b01388b7aull},
    {"mine_pump", "schedule.h", 1357u, 0x50ffc6e57216ba11ull},
    {"mine_pump", "dispatcher.c", 40223u, 0x73c37038e68a3714ull},
    {"mine_pump", "tasks.c", 1401u, 0xc15e309517cc09e4ull},
    {"uav_dual_processor", "net.pnml", 41104u, 0x86bd1b55d79c91e0ull},
    {"uav_dual_processor", "schedule.h", 1724u, 0x78b2f73c8e87b5ffull},
    {"uav_dual_processor", "dispatcher_p0.c", 2540u, 0xd1010d9eea70a1e7ull},
    {"uav_dual_processor", "dispatcher_p1.c", 2734u, 0x0812f10ec45567c0ull},
    {"uav_dual_processor", "messages.c", 680u, 0x29bd96fbcf1332b2ull},
    {"uav_dual_processor", "tasks.c", 936u, 0x4b2ba214b27fc5a4ull},
};

constexpr const char* kExamples[] = {"harmonic_u40", "mine_pump",
                                     "uav_dual_processor"};

TEST(FrontEndGolden, WriteEzspecReproducesTheExampleDocuments) {
  for (const char* model : kExamples) {
    const std::string doc = example_document(model);
    EXPECT_EQ(pnml::write_ezspec(pnml::read_ezspec(doc).value()).value(), doc)
        << model;
  }
}

TEST(FrontEndGolden, PnmlAndGeneratedCodeBytes) {
  std::size_t checked = 0;
  for (const char* model : kExamples) {
    const spec::Specification s = example_spec(model);
    std::vector<std::pair<std::string, std::string>> outputs;
    outputs.emplace_back(
        "net.pnml", pnml::write_pnml(builder::build_tpn(s).value().net));
    core::Project project(s);
    if (std::string_view(model) == "uav_dual_processor") {
      project.scheduler_options().pruning = sched::PruningMode::kNone;
    }
    auto code = project.generate_code();
    ASSERT_TRUE(code.ok()) << model << ": " << code.error().to_string();
    for (const codegen::GeneratedFile& file : code.value().files) {
      outputs.emplace_back(file.name, file.content);
    }
    std::size_t pinned = 0;
    for (const Golden& g : kGolden) {
      pinned += std::string_view(g.model) == model ? 1 : 0;
    }
    EXPECT_EQ(outputs.size(), pinned) << model;
    for (const auto& [name, bytes] : outputs) {
      const Golden* golden = nullptr;
      for (const Golden& g : kGolden) {
        if (std::string_view(g.model) == model && name == g.file) {
          golden = &g;
        }
      }
      ASSERT_NE(golden, nullptr) << model << ": unexpected output " << name;
      EXPECT_EQ(bytes.size(), golden->size) << model << "/" << name;
      EXPECT_EQ(fnv1a(bytes), golden->fnv) << model << "/" << name;
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

// Codegen variants the host-sim bundle above does not reach: the bare-metal
// backend with two port families (the UAV set is the 2-core set with
// messages), user code spliced and suppressed, and the dispOveh macro. Each
// entry pins one file a variant changes; `model` is "<example>/<variant>".
constexpr Golden kVariantGolden[] = {
    {"harmonic_u40/generic", "dispatcher.c", 1844u, 0xe80609a1b94ac6c4ull},
    {"harmonic_u40/generic", "port.h", 733u, 0x4828fc2eba8d15ceull},
    {"harmonic_u40/8051", "dispatcher.c", 1844u, 0xe80609a1b94ac6c4ull},
    {"harmonic_u40/8051", "port.h", 2329u, 0x1d78efc6e29687c3ull},
    {"mine_pump/generic", "dispatcher.c", 39421u, 0x81fe0d8fb108aca2ull},
    {"mine_pump/generic", "port.h", 733u, 0x4828fc2eba8d15ceull},
    {"mine_pump/8051", "dispatcher.c", 39421u, 0x81fe0d8fb108aca2ull},
    {"mine_pump/8051", "port.h", 2329u, 0x1d78efc6e29687c3ull},
    {"uav_dual_processor/generic", "dispatcher_p0.c",
     1900u, 0x2a2ee621d6f137e2ull},
    {"uav_dual_processor/generic", "dispatcher_p1.c",
     2094u, 0x27b0111a7c748d2dull},
    {"uav_dual_processor/generic", "messages.c", 680u, 0x29bd96fbcf1332b2ull},
    {"uav_dual_processor/generic", "port.h", 733u, 0x4828fc2eba8d15ceull},
    {"uav_dual_processor/8051", "dispatcher_p0.c",
     1900u, 0x2a2ee621d6f137e2ull},
    {"uav_dual_processor/8051", "dispatcher_p1.c",
     2094u, 0x27b0111a7c748d2dull},
    {"uav_dual_processor/8051", "messages.c", 680u, 0x29bd96fbcf1332b2ull},
    {"uav_dual_processor/8051", "port.h", 2329u, 0x1d78efc6e29687c3ull},
    {"mine_pump/user-code", "tasks.c", 1399u, 0x1f72f97a4e372771ull},
    {"mine_pump/no-user-code", "tasks.c", 1401u, 0xc15e309517cc09e4ull},
    {"harmonic_u40/dispOveh", "dispatcher.c", 1987u, 0x11cdb7910a2c3c4eull},
};

TEST(FrontEndGolden, CodegenVariantBytes) {
  std::size_t checked = 0;
  const auto expect_pinned = [&](const std::string& label,
                                 const codegen::GeneratedCode& code) {
    for (const Golden& g : kVariantGolden) {
      if (label != g.model) {
        continue;
      }
      const codegen::GeneratedFile* file = code.find(g.file);
      ASSERT_NE(file, nullptr) << label << ": no " << g.file;
      EXPECT_EQ(file->content.size(), g.size) << label << "/" << g.file;
      EXPECT_EQ(fnv1a(file->content), g.fnv) << label << "/" << g.file;
      ++checked;
    }
  };
  const auto generate = [](core::Project& project,
                           const codegen::CodegenOptions& options) {
    auto code = project.generate_code(options);
    EXPECT_TRUE(code.ok()) << code.error().to_string();
    return code.ok() ? std::move(code).value() : codegen::GeneratedCode{};
  };

  codegen::CodegenOptions bare;
  bare.target = codegen::Target::kBareMetal;
  for (const char* model : kExamples) {
    core::Project project(example_spec(model));
    if (std::string_view(model) == "uav_dual_processor") {
      project.scheduler_options().pruning = sched::PruningMode::kNone;
    }
    for (const codegen::McuFamily mcu :
         {codegen::McuFamily::kGeneric, codegen::McuFamily::k8051}) {
      bare.mcu = mcu;
      expect_pinned(std::string(model) + "/" + codegen::to_string(mcu),
                    generate(project, bare));
    }
  }

  // Code on every other task: multi-line, with an empty line and a
  // trailing newline; the odd tasks get the "not specified" stub.
  spec::Specification coded = example_spec("mine_pump");
  for (TaskId id : coded.task_ids()) {
    if (id.value() % 2 == 0) {
      coded.set_task_code(id, "read_" + std::to_string(id.value()) +
                                  "();\n\nif (level > 3) {\n  pump_on();\n}\n");
    }
  }
  core::Project coded_project(coded);
  codegen::CodegenOptions host;
  expect_pinned("mine_pump/user-code", generate(coded_project, host));
  host.include_user_code = false;
  expect_pinned("mine_pump/no-user-code", generate(coded_project, host));

  std::string doc = example_document("harmonic_u40");
  const std::size_t flag = doc.find("dispOveh=\"false\"");
  ASSERT_NE(flag, std::string::npos);
  doc.replace(flag, 16, "dispOveh=\"true\"");
  core::Project overhead(pnml::read_ezspec(doc).value());
  bare.mcu = codegen::McuFamily::kGeneric;
  expect_pinned("harmonic_u40/dispOveh", generate(overhead, bare));

  EXPECT_EQ(checked, std::size(kVariantGolden));
}

// -- Net indices against a dense oracle --------------------------------------

/// Recomputes consumers, affected sets and conflict-free bits from the arc
/// lists alone, by scanning every transition, and compares.
void expect_indices_match_dense_oracle(const tpn::TimePetriNet& net,
                                       const std::string& label) {
  const auto consumes = [&](TransitionId u, PlaceId p) {
    for (const tpn::Arc& arc : net.inputs(u)) {
      if (arc.place == p) {
        return true;
      }
    }
    return false;
  };
  for (PlaceId p : net.place_ids()) {
    std::vector<TransitionId> want;
    for (TransitionId t : net.transition_ids()) {
      for (const tpn::Arc& arc : net.inputs(t)) {
        if (arc.place == p) {
          want.push_back(t);
        }
      }
    }
    const auto got = net.consumers(p);
    EXPECT_EQ(std::vector<TransitionId>(got.begin(), got.end()), want)
        << label << ": consumers of " << net.place(p).name;
  }
  for (TransitionId t : net.transition_ids()) {
    std::vector<PlaceId> touched;
    for (const tpn::Arc& arc : net.inputs(t)) {
      touched.push_back(arc.place);
    }
    for (const tpn::Arc& arc : net.outputs(t)) {
      touched.push_back(arc.place);
    }
    std::vector<TransitionId> want_affected;
    bool want_free = true;
    for (TransitionId u : net.transition_ids()) {
      bool hit = false;
      for (PlaceId p : touched) {
        hit = hit || consumes(u, p);
      }
      if (hit) {
        want_affected.push_back(u);
      }
      if (u != t) {
        for (const tpn::Arc& arc : net.inputs(t)) {
          want_free = want_free && !consumes(u, arc.place);
        }
      }
    }
    const auto got = net.affected(t);
    EXPECT_EQ(std::vector<TransitionId>(got.begin(), got.end()),
              want_affected)
        << label << ": affected(" << net.transition(t).name << ")";
    EXPECT_EQ(net.conflict_free(t), want_free)
        << label << ": conflict_free(" << net.transition(t).name << ")";
  }
}

TEST(NetIndexOracle, ExampleModels) {
  for (const char* model : kExamples) {
    for (const builder::BlockStyle style :
         {builder::BlockStyle::kCompact, builder::BlockStyle::kPaper}) {
      const auto built = builder::build_tpn(example_spec(model), {style});
      ASSERT_TRUE(built.ok()) << model;
      expect_indices_match_dense_oracle(
          built.value().net,
          std::string(model) + "/" + builder::to_string(style));
    }
  }
}

TEST(NetIndexOracle, GeneratedFortyTaskSet) {
  workload::WorkloadConfig config;
  config.tasks = 40;
  config.utilization = 0.6;
  config.preemptive_fraction = 0.2;
  config.precedence_edges = 8;
  config.exclusion_pairs = 6;
  config.seed = 11;
  const auto s = workload::generate(config);
  ASSERT_TRUE(s.ok());
  const auto built = builder::build_tpn(s.value());
  ASSERT_TRUE(built.ok());
  EXPECT_GE(built.value().net.transition_count(), 40u * 5u);
  expect_indices_match_dense_oracle(built.value().net, "generated-40");
}

TEST(NetIndexOracle, GlobalMultiprocessorSet) {
  const auto s = workload::generate(workload::multiproc_scenario(
      workload::Placement::kGlobal, /*harmonic=*/false, 4, 3));
  ASSERT_TRUE(s.ok());
  ASSERT_GT(s.value().message_count(), 0u);
  const auto built = builder::build_tpn(s.value());
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value().sync_pool.valid());
  expect_indices_match_dense_oracle(built.value().net, "global-4core");
}

}  // namespace
}  // namespace ezrt
