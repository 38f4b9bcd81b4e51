#include "codegen/ports.hpp"

#include "base/strings.hpp"

namespace ezrt::codegen {

namespace {

void emit_prologue(TextBuilder& os, McuFamily family,
                   std::uint64_t timer_hz) {
  os << "/* port.h — " << to_string(family)
     << " port layer for the ezRealtime dispatcher.\n"
     << " * Generated template: items tagged EZRT_PORT_TODO are "
        "board-specific\n"
     << " * (vectors, clock tree, memory map) and must be calibrated.\n"
     << " * One model time unit = 1/" << timer_hz << " s. */\n"
     << "#ifndef EZRT_PORT_H\n"
     << "#define EZRT_PORT_H\n\n"
     << "#define EZRT_TICK_HZ " << timer_hz << "ul\n\n";
}

void emit_epilogue(TextBuilder& os) { os << "#endif /* EZRT_PORT_H */\n"; }

void emit_generic(TextBuilder& os) {
  os << "/* Generic do-nothing port: compiles on any toolchain so the\n"
     << " * dispatcher's control flow can be inspected or unit-tested\n"
     << " * off-target. */\n"
     << "#define TIMER_ISR\n"
     << "#define SAVE_CONTEXT(slot)    ((void)(slot)) /* EZRT_PORT_TODO */\n"
     << "#define RESTORE_CONTEXT(slot) ((void)(slot)) /* EZRT_PORT_TODO */\n"
     << "#define PROGRAM_TIMER(ticks)  ((void)(ticks)) /* EZRT_PORT_TODO "
        "*/\n"
     << "#define IDLE()                do { } while (0)\n\n";
}

void emit_8051(TextBuilder& os) {
  os << "/* MCS-51 port (SDCC dialect). Timer 0 in 16-bit mode drives the\n"
     << " * dispatcher; context lives on the hardware stack. */\n"
     << "#include <8051.h>\n\n"
     << "#define TIMER_ISR __interrupt(1) /* Timer 0 overflow vector */\n\n"
     << "/* The 8051 has one register bank live at a time; the dispatcher\n"
     << " * saves the working set explicitly. `slot` indexes a per-task\n"
     << " * save area in idata. */\n"
     << "extern unsigned char __idata ezrt_ctx[8][8];\n"
     << "#define SAVE_CONTEXT(slot)                         \\\n"
     << "  do {                                             \\\n"
     << "    ezrt_ctx[(slot)][0] = ACC;                     \\\n"
     << "    ezrt_ctx[(slot)][1] = B;                       \\\n"
     << "    ezrt_ctx[(slot)][2] = DPH;                     \\\n"
     << "    ezrt_ctx[(slot)][3] = DPL;                     \\\n"
     << "    ezrt_ctx[(slot)][4] = PSW;                     \\\n"
     << "    ezrt_ctx[(slot)][5] = SP; /* EZRT_PORT_TODO: stack copy */ \\\n"
     << "  } while (0)\n"
     << "#define RESTORE_CONTEXT(slot)                      \\\n"
     << "  do {                                             \\\n"
     << "    ACC = ezrt_ctx[(slot)][0];                     \\\n"
     << "    B   = ezrt_ctx[(slot)][1];                     \\\n"
     << "    DPH = ezrt_ctx[(slot)][2];                     \\\n"
     << "    DPL = ezrt_ctx[(slot)][3];                     \\\n"
     << "    PSW = ezrt_ctx[(slot)][4];                     \\\n"
     << "    SP  = ezrt_ctx[(slot)][5];                     \\\n"
     << "  } while (0)\n\n"
     << "/* Timer 0, mode 1 (16-bit): reload = 65536 - ticks*cycles. */\n"
     << "#define EZRT_CYCLES_PER_TICK 922u /* EZRT_PORT_TODO: fosc/12 */\n"
     << "#define PROGRAM_TIMER(ticks)                                 \\\n"
     << "  do {                                                       \\\n"
     << "    unsigned int reload =                                    \\\n"
     << "        (unsigned int)(65536ul - (ticks) * EZRT_CYCLES_PER_TICK); "
        "\\\n"
     << "    TR0 = 0;                                                 \\\n"
     << "    TH0 = (unsigned char)(reload >> 8);                      \\\n"
     << "    TL0 = (unsigned char)(reload & 0xFF);                    \\\n"
     << "    TR0 = 1;                                                 \\\n"
     << "  } while (0)\n"
     << "#define IDLE() do { PCON |= 0x01; } while (0) /* idle mode */\n\n";
}

void emit_arm9(TextBuilder& os) {
  os << "/* ARM9 (ARMv5) port. A memory-mapped down-counter raises the\n"
     << " * timer IRQ; context is the ARM register file, saved by the IRQ\n"
     << " * entry veneer into a per-task frame. */\n"
     << "#define TIMER_ISR __attribute__((interrupt(\"IRQ\")))\n\n"
     << "typedef struct { unsigned long r[13], sp, lr, cpsr; } "
        "ezrt_arm_ctx;\n"
     << "extern ezrt_arm_ctx ezrt_ctx[8];\n"
     << "/* EZRT_PORT_TODO: the save/restore bodies belong in the IRQ\n"
     << " * veneer (assembly); these macros call it. */\n"
     << "extern void ezrt_arm_save(ezrt_arm_ctx *ctx);\n"
     << "extern void ezrt_arm_restore(const ezrt_arm_ctx *ctx);\n"
     << "#define SAVE_CONTEXT(slot)    ezrt_arm_save(&ezrt_ctx[(slot)])\n"
     << "#define RESTORE_CONTEXT(slot) ezrt_arm_restore(&ezrt_ctx[(slot)])"
        "\n\n"
     << "#define EZRT_TIMER_BASE 0x101E2000ul /* EZRT_PORT_TODO: SoC map "
        "*/\n"
     << "#define EZRT_TIMER_LOAD (*(volatile unsigned long *)"
        "(EZRT_TIMER_BASE + 0x00))\n"
     << "#define EZRT_TIMER_CTRL (*(volatile unsigned long *)"
        "(EZRT_TIMER_BASE + 0x08))\n"
     << "#define EZRT_CYCLES_PER_TICK 1000ul /* EZRT_PORT_TODO */\n"
     << "#define PROGRAM_TIMER(ticks)                              \\\n"
     << "  do {                                                    \\\n"
     << "    EZRT_TIMER_CTRL = 0;                                  \\\n"
     << "    EZRT_TIMER_LOAD = (ticks) * EZRT_CYCLES_PER_TICK;     \\\n"
     << "    EZRT_TIMER_CTRL = 0xE0; /* enable|periodic-off|irq */ \\\n"
     << "  } while (0)\n"
     << "#define IDLE() __asm__ volatile(\"mcr p15, 0, %0, c7, c0, 4\" :: "
        "\"r\"(0)) /* wait for interrupt */\n\n";
}

void emit_m68k(TextBuilder& os) {
  os << "/* M68K port. The dispatcher runs from a timer auto-vector;\n"
     << " * MOVEM saves the register file into a per-task frame. */\n"
     << "#define TIMER_ISR __attribute__((interrupt_handler))\n\n"
     << "typedef struct { unsigned long d[8], a[7], usp, sr_pc[2]; } "
        "ezrt_m68k_ctx;\n"
     << "extern ezrt_m68k_ctx ezrt_ctx[8];\n"
     << "#define SAVE_CONTEXT(slot)                                   \\\n"
     << "  __asm__ volatile(\"movem.l %%d0-%%d7/%%a0-%%a6,%0\"        \\\n"
     << "                   : \"=m\"(ezrt_ctx[(slot)]))\n"
     << "#define RESTORE_CONTEXT(slot)                                \\\n"
     << "  __asm__ volatile(\"movem.l %0,%%d0-%%d7/%%a0-%%a6\"        \\\n"
     << "                   :: \"m\"(ezrt_ctx[(slot)]))\n\n"
     << "#define EZRT_PIT_PRELOAD (*(volatile unsigned short *)0xFFFFFA24)"
        " /* EZRT_PORT_TODO */\n"
     << "#define EZRT_CYCLES_PER_TICK 100u /* EZRT_PORT_TODO */\n"
     << "#define PROGRAM_TIMER(ticks) \\\n"
     << "  do { EZRT_PIT_PRELOAD = (unsigned short)((ticks) * "
        "EZRT_CYCLES_PER_TICK); } while (0)\n"
     << "#define IDLE() __asm__ volatile(\"stop #0x2000\")\n\n";
}

void emit_x86(TextBuilder& os) {
  os << "/* x86 port: the 8254 PIT channel 0 drives IRQ0; context is the\n"
     << " * general register file (a bare-metal single-address-space\n"
     << " * deployment; no paging assumed). */\n"
     << "#define TIMER_ISR __attribute__((interrupt))\n\n"
     << "typedef struct { unsigned long gpr[8], eflags, eip; } "
        "ezrt_x86_ctx;\n"
     << "extern ezrt_x86_ctx ezrt_ctx[8];\n"
     << "extern void ezrt_x86_save(ezrt_x86_ctx *ctx);\n"
     << "extern void ezrt_x86_restore(const ezrt_x86_ctx *ctx);\n"
     << "#define SAVE_CONTEXT(slot)    ezrt_x86_save(&ezrt_ctx[(slot)])\n"
     << "#define RESTORE_CONTEXT(slot) ezrt_x86_restore(&ezrt_ctx[(slot)])"
        "\n\n"
     << "static inline void ezrt_outb(unsigned short port, unsigned char "
        "v) {\n"
     << "  __asm__ volatile(\"outb %0, %1\" :: \"a\"(v), \"Nd\"(port));\n"
     << "}\n"
     << "#define EZRT_PIT_HZ 1193182ul\n"
     << "#define PROGRAM_TIMER(ticks)                                  \\\n"
     << "  do {                                                        \\\n"
     << "    unsigned long divisor =                                   \\\n"
     << "        (ticks) * (EZRT_PIT_HZ / EZRT_TICK_HZ);               \\\n"
     << "    ezrt_outb(0x43, 0x30); /* ch0, lobyte/hibyte, one-shot */ \\\n"
     << "    ezrt_outb(0x40, (unsigned char)(divisor & 0xFF));         \\\n"
     << "    ezrt_outb(0x40, (unsigned char)((divisor >> 8) & 0xFF));  \\\n"
     << "  } while (0)\n"
     << "#define IDLE() __asm__ volatile(\"hlt\")\n\n";
}

}  // namespace

const char* to_string(McuFamily family) {
  switch (family) {
    case McuFamily::kGeneric:
      return "generic";
    case McuFamily::k8051:
      return "8051";
    case McuFamily::kArm9:
      return "arm9";
    case McuFamily::kM68k:
      return "m68k";
    case McuFamily::kX86:
      return "x86";
  }
  return "unknown";
}

Result<McuFamily> mcu_family_from_string(std::string_view s) {
  for (const McuFamily family :
       {McuFamily::kGeneric, McuFamily::k8051, McuFamily::kArm9,
        McuFamily::kM68k, McuFamily::kX86}) {
    if (s == to_string(family)) {
      return family;
    }
  }
  return make_error(ErrorCode::kUnsupported,
                    "unknown MCU family '" + std::string(s) +
                        "' (expected generic|8051|arm9|m68k|x86)");
}

std::string generate_port_header(McuFamily family, std::uint64_t timer_hz) {
  TextBuilder os(2560);
  emit_prologue(os, family, timer_hz);
  switch (family) {
    case McuFamily::kGeneric:
      emit_generic(os);
      break;
    case McuFamily::k8051:
      emit_8051(os);
      break;
    case McuFamily::kArm9:
      emit_arm9(os);
      break;
    case McuFamily::kM68k:
      emit_m68k(os);
      break;
    case McuFamily::kX86:
      emit_x86(os);
      break;
  }
  emit_epilogue(os);
  return os.take();
}

}  // namespace ezrt::codegen
