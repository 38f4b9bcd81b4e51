// Unit tests for the MCU port-layer generation (the paper's future-work
// targets: generic, 8051, ARM9, M68K, x86).
#include <gtest/gtest.h>

#include "codegen/c_generator.hpp"
#include "codegen/ports.hpp"
#include "sched/schedule_table.hpp"

namespace ezrt::codegen {
namespace {

constexpr McuFamily kAllFamilies[] = {McuFamily::kGeneric, McuFamily::k8051,
                                      McuFamily::kArm9, McuFamily::kM68k,
                                      McuFamily::kX86};

TEST(Ports, EveryFamilyDefinesTheDispatcherContract) {
  for (const McuFamily family : kAllFamilies) {
    const std::string header = generate_port_header(family);
    for (const char* macro : {"TIMER_ISR", "SAVE_CONTEXT",
                              "RESTORE_CONTEXT", "PROGRAM_TIMER", "IDLE"}) {
      EXPECT_NE(header.find(std::string("#define ") + macro),
                std::string::npos)
          << to_string(family) << " lacks " << macro;
    }
    EXPECT_NE(header.find("#ifndef EZRT_PORT_H"), std::string::npos);
    EXPECT_NE(header.find("#endif"), std::string::npos);
  }
}

TEST(Ports, TimerRateEmbedded) {
  const std::string header =
      generate_port_header(McuFamily::kGeneric, 2000);
  EXPECT_NE(header.find("#define EZRT_TICK_HZ 2000ul"), std::string::npos);
}

TEST(Ports, FamilySpecificArtifacts) {
  EXPECT_NE(generate_port_header(McuFamily::k8051).find("__interrupt(1)"),
            std::string::npos);
  EXPECT_NE(generate_port_header(McuFamily::k8051).find("TR0"),
            std::string::npos);
  EXPECT_NE(generate_port_header(McuFamily::kArm9).find("interrupt(\"IRQ\")"),
            std::string::npos);
  EXPECT_NE(generate_port_header(McuFamily::kM68k).find("movem.l"),
            std::string::npos);
  EXPECT_NE(generate_port_header(McuFamily::kX86).find("outb"),
            std::string::npos);
  EXPECT_NE(generate_port_header(McuFamily::kX86).find("hlt"),
            std::string::npos);
}

TEST(Ports, BoardSpecificsAreFlagged) {
  for (const McuFamily family :
       {McuFamily::k8051, McuFamily::kArm9, McuFamily::kM68k}) {
    EXPECT_NE(generate_port_header(family).find("EZRT_PORT_TODO"),
              std::string::npos)
        << to_string(family);
  }
}

TEST(Ports, FamilyNamesRoundTrip) {
  for (const McuFamily family : kAllFamilies) {
    auto parsed = mcu_family_from_string(to_string(family));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), family);
  }
  EXPECT_FALSE(mcu_family_from_string("z80").ok());
}

TEST(Ports, BareMetalCodegenIncludesPortHeader) {
  spec::Specification s("port");
  s.add_processor("cpu");
  s.add_task("A", spec::TimingConstraints{0, 0, 2, 8, 10});
  ASSERT_TRUE(s.validate().ok());
  sched::ScheduleTable table;
  table.schedule_period = 10;
  table.items.push_back(sched::ScheduleItem{0, false, TaskId(0), 0, 2, {}});

  CodegenOptions options;
  options.target = Target::kBareMetal;
  options.mcu = McuFamily::k8051;
  options.timer_hz = 500;
  auto code = generate(s, table, options);
  ASSERT_TRUE(code.ok());
  const GeneratedFile* port = code.value().find("port.h");
  ASSERT_NE(port, nullptr);
  EXPECT_NE(port->content.find("8051"), std::string::npos);
  EXPECT_NE(port->content.find("EZRT_TICK_HZ 500ul"), std::string::npos);
}

TEST(Ports, HostSimDoesNotEmitPortHeader) {
  spec::Specification s("nohdr");
  s.add_processor("cpu");
  s.add_task("A", spec::TimingConstraints{0, 0, 2, 8, 10});
  ASSERT_TRUE(s.validate().ok());
  sched::ScheduleTable table;
  table.schedule_period = 10;
  table.items.push_back(sched::ScheduleItem{0, false, TaskId(0), 0, 2, {}});
  auto code = generate(s, table);  // host-sim default
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value().find("port.h"), nullptr);
}

}  // namespace
}  // namespace ezrt::codegen
