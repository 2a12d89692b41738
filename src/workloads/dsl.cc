#include "workloads/dsl.hh"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "support/numbers.hh"

namespace re::workloads {

namespace {

// ---------------------------------------------------------------------------
// Lexing helpers
// ---------------------------------------------------------------------------

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#') break;  // comment to end of line
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
    } else if (c == '{' || c == '}' || c == ';') {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
      tokens.push_back(std::string(1, c));
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

/// Unsigned number (decimal, 0x hex or 0 octal) with an optional K/M
/// suffix. Signs, leading blanks and anything that does not fit in 64 bits
/// after scaling are rejected, never wrapped.
std::uint64_t parse_size(const std::string& text, int line) {
  if (text.empty()) throw DslParseError(line, "empty number");
  std::uint64_t multiplier = 1;
  std::string digits = text;
  const char suffix = digits.back();
  if (suffix == 'K' || suffix == 'k') {
    multiplier = 1024;
    digits.pop_back();
  } else if (suffix == 'M' || suffix == 'm') {
    multiplier = 1024 * 1024;
    digits.pop_back();
  }
  const Expected<std::uint64_t> parsed = support::parse_uint64(digits);
  if (!parsed.has_value()) {
    throw DslParseError(line, parsed.status().message() + ": " + text);
  }
  const std::uint64_t value = *parsed;
  if (value > std::numeric_limits<std::uint64_t>::max() / multiplier) {
    throw DslParseError(line, "number out of range: " + text);
  }
  return value * multiplier;
}

/// parse_size with an optional sign; the magnitude must fit in int64_t
/// (down to INT64_MIN for a negative number).
std::int64_t parse_signed(const std::string& text, int line) {
  const bool negative = !text.empty() && text[0] == '-';
  const bool sign = negative || (!text.empty() && text[0] == '+');
  const std::uint64_t magnitude =
      parse_size(sign ? text.substr(1) : text, line);
  constexpr std::uint64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (magnitude > kMax + (negative ? 1 : 0)) {
    throw DslParseError(line, "number out of range: " + text);
  }
  // -(kMax + 1) is INT64_MIN; negate in unsigned arithmetic so that
  // magnitude does not overflow on the way.
  return negative ? static_cast<std::int64_t>(0 - magnitude)
                  : static_cast<std::int64_t>(magnitude);
}

/// The N of a `pcN:` label: decimal digits only, the whole label consumed,
/// and N representable as a Pc.
Pc parse_pc_label(const std::string& label, int line) {
  const char* first = label.data() + 2;
  const char* last = label.data() + label.size() - 1;  // before ':'
  Pc pc = 0;
  const auto [end, error] = std::from_chars(first, last, pc);
  if (error == std::errc::result_out_of_range) {
    throw DslParseError(line, "pc label out of range: " + label);
  }
  if (error != std::errc() || end != last) {
    throw DslParseError(line, "bad pc label: " + label);
  }
  return pc;
}

/// key=value fields of an instruction line.
using Fields = std::map<std::string, std::string>;

std::uint64_t field_size(const Fields& fields, const std::string& key,
                         int line) {
  auto it = fields.find(key);
  if (it == fields.end()) {
    throw DslParseError(line, "missing field: " + key);
  }
  return parse_size(it->second, line);
}

std::int64_t field_signed(const Fields& fields, const std::string& key,
                          int line) {
  auto it = fields.find(key);
  if (it == fields.end()) {
    throw DslParseError(line, "missing field: " + key);
  }
  return parse_signed(it->second, line);
}

std::uint64_t field_size_or(const Fields& fields, const std::string& key,
                            std::uint64_t fallback, int line) {
  auto it = fields.find(key);
  return it == fields.end() ? fallback : parse_size(it->second, line);
}

/// A field the IR stores in 32 bits: a value that does not fit is
/// rejected, never truncated.
std::uint32_t to_u32(std::uint64_t value, const std::string& key, int line) {
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw DslParseError(line,
                        key + " out of range: " + std::to_string(value));
  }
  return static_cast<std::uint32_t>(value);
}

/// A size the pattern wraps at or divides by: zero is rejected.
std::uint64_t positive(std::uint64_t value, const std::string& key,
                       int line) {
  if (value == 0) throw DslParseError(line, key + " must be positive");
  return value;
}

std::uint64_t field_footprint(const Fields& fields, int line) {
  return positive(field_size(fields, "footprint", line), "footprint", line);
}

AccessPattern parse_pattern(const std::string& kind, const Fields& fields,
                            int line) {
  const Addr base = field_size_or(fields, "base", 0, line);
  if (kind == "stream") {
    return StreamPattern{base, field_signed(fields, "stride", line),
                         field_footprint(fields, line)};
  }
  if (kind == "strided") {
    return StridedPattern{
        base, field_signed(fields, "stride", line),
        field_footprint(fields, line),
        to_u32(field_size_or(fields, "irregular", 0, line), "irregular",
               line)};
  }
  if (kind == "chase") {
    return PointerChasePattern{
        base, field_footprint(fields, line),
        to_u32(positive(field_size_or(fields, "node", 64, line), "node",
                        line),
               "node", line)};
  }
  if (kind == "gather") {
    return GatherPattern{
        base, field_footprint(fields, line),
        to_u32(positive(field_size_or(fields, "element", 8, line), "element",
                        line),
               "element", line)};
  }
  if (kind == "shortstream") {
    return ShortStreamPattern{
        base, field_signed(fields, "stride", line),
        to_u32(positive(field_size(fields, "len", line), "len", line), "len",
               line),
        field_footprint(fields, line)};
  }
  if (kind == "hot") {
    return HotBufferPattern{base, field_signed(fields, "stride", line),
                            field_footprint(fields, line)};
  }
  if (kind == "blocked") {
    return BlockedPattern{
        base, field_signed(fields, "stride", line),
        field_size(fields, "block", line), field_footprint(fields, line),
        to_u32(field_size_or(fields, "revisits", 1, line), "revisits",
               line)};
  }
  throw DslParseError(line, "unknown pattern kind: " + kind);
}

PrefetchHint parse_hint(const std::string& mnemonic, int line) {
  if (mnemonic == "prefetcht0") return PrefetchHint::T0;
  if (mnemonic == "prefetcht1") return PrefetchHint::T1;
  if (mnemonic == "prefetcht2") return PrefetchHint::T2;
  if (mnemonic == "prefetchnta") return PrefetchHint::NTA;
  throw DslParseError(line, "unknown prefetch mnemonic: " + mnemonic);
}

const char* hint_name(PrefetchHint hint) {
  switch (hint) {
    case PrefetchHint::T0: return "prefetcht0";
    case PrefetchHint::T1: return "prefetcht1";
    case PrefetchHint::T2: return "prefetcht2";
    case PrefetchHint::NTA: return "prefetchnta";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Printing helpers
// ---------------------------------------------------------------------------

std::string size_str(std::uint64_t value) {
  char buf[32];
  if (value >= (1ULL << 20) && value % (1ULL << 20) == 0) {
    std::snprintf(buf, sizeof(buf), "%lluM",
                  static_cast<unsigned long long>(value >> 20));
  } else if (value >= 1024 && value % 1024 == 0) {
    std::snprintf(buf, sizeof(buf), "%lluK",
                  static_cast<unsigned long long>(value >> 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
  }
  return buf;
}

std::string base_str(Addr base) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(base));
  return buf;
}

struct PatternPrinter {
  std::ostringstream& out;

  void operator()(const StreamPattern& p) const {
    out << "stream base=" << base_str(p.base) << " stride=" << p.stride
        << " footprint=" << size_str(p.footprint);
  }
  void operator()(const StridedPattern& p) const {
    out << "strided base=" << base_str(p.base) << " stride=" << p.stride
        << " footprint=" << size_str(p.footprint)
        << " irregular=" << p.irregular_ppm;
  }
  void operator()(const PointerChasePattern& p) const {
    out << "chase base=" << base_str(p.base)
        << " footprint=" << size_str(p.footprint) << " node=" << p.node_size;
  }
  void operator()(const GatherPattern& p) const {
    out << "gather base=" << base_str(p.base)
        << " footprint=" << size_str(p.footprint)
        << " element=" << p.element_size;
  }
  void operator()(const ShortStreamPattern& p) const {
    out << "shortstream base=" << base_str(p.base) << " stride=" << p.stride
        << " len=" << p.stream_len << " footprint=" << size_str(p.footprint);
  }
  void operator()(const HotBufferPattern& p) const {
    out << "hot base=" << base_str(p.base) << " stride=" << p.stride
        << " footprint=" << size_str(p.footprint);
  }
  void operator()(const BlockedPattern& p) const {
    out << "blocked base=" << base_str(p.base) << " stride=" << p.stride
        << " block=" << size_str(p.block_bytes)
        << " footprint=" << size_str(p.footprint)
        << " revisits=" << p.revisits;
  }
};

}  // namespace

Program parse_program(const std::string& text) {
  Program program;
  bool saw_header = false;
  bool in_loop = false;
  int line_no = 0;
  std::uint64_t refs_per_rep = 0;

  std::istringstream stream(text);
  std::string raw_line;
  while (std::getline(stream, raw_line)) {
    ++line_no;
    const std::vector<std::string> tokens = tokenize(raw_line);
    if (tokens.empty()) continue;

    if (tokens[0] == "program") {
      if (saw_header) throw DslParseError(line_no, "duplicate program header");
      if (tokens.size() < 2) {
        throw DslParseError(line_no, "program needs a name");
      }
      saw_header = true;
      program.name = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto eq = tokens[i].find('=');
        if (eq == std::string::npos) {
          throw DslParseError(line_no, "expected key=value: " + tokens[i]);
        }
        const std::string key = tokens[i].substr(0, eq);
        const std::string value = tokens[i].substr(eq + 1);
        if (key == "seed") {
          program.seed = parse_size(value, line_no);
        } else if (key == "reps") {
          program.outer_reps = parse_size(value, line_no);
        } else {
          throw DslParseError(line_no, "unknown program field: " + key);
        }
      }
      continue;
    }

    if (!saw_header) {
      throw DslParseError(line_no, "expected `program <name>` header first");
    }

    if (tokens[0] == "loop") {
      if (in_loop) throw DslParseError(line_no, "nested loops not supported");
      if (tokens.size() < 3 || tokens[2] != "{") {
        throw DslParseError(line_no, "expected `loop <iterations> {`");
      }
      Loop loop;
      loop.iterations = parse_size(tokens[1], line_no);
      program.loops.push_back(std::move(loop));
      in_loop = true;
      continue;
    }

    if (tokens[0] == "}") {
      if (!in_loop) throw DslParseError(line_no, "unmatched `}`");
      in_loop = false;
      continue;
    }

    // Instruction: pcN: kind key=value... [serial] [; mnemonic +dist]
    if (!in_loop) {
      throw DslParseError(line_no, "instruction outside a loop");
    }
    std::string label = tokens[0];
    if (label.size() < 4 || label.substr(0, 2) != "pc" ||
        label.back() != ':') {
      throw DslParseError(line_no, "expected `pcN:` label, got " + label);
    }
    StaticInst inst;
    inst.pc = parse_pc_label(label, line_no);
    if (tokens.size() < 2) throw DslParseError(line_no, "missing pattern");
    const std::string kind = tokens[1];

    Fields fields;
    std::size_t i = 2;
    for (; i < tokens.size(); ++i) {
      if (tokens[i] == ";") break;
      if (tokens[i] == "serial") {
        inst.serial_dependent = true;
        continue;
      }
      if (tokens[i] == "store") {
        inst.is_store = true;
        continue;
      }
      const auto eq = tokens[i].find('=');
      if (eq == std::string::npos) {
        throw DslParseError(line_no, "expected key=value: " + tokens[i]);
      }
      fields[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
    }
    if (fields.count("compute")) {
      inst.compute_cycles =
          to_u32(parse_size(fields.at("compute"), line_no), "compute",
                 line_no);
      fields.erase("compute");
    }
    inst.pattern = parse_pattern(kind, fields, line_no);

    if (i < tokens.size() && tokens[i] == ";") {
      if (i + 2 >= tokens.size()) {
        throw DslParseError(line_no, "incomplete prefetch annotation");
      }
      PrefetchOp op;
      op.hint = parse_hint(tokens[i + 1], line_no);
      op.distance_bytes = parse_signed(tokens[i + 2], line_no);
      inst.prefetch = op;
    }

    program.loops.back().body.push_back(std::move(inst));
    // total_references() = reps x sum(iterations x body size) must stay
    // within the budget; each step is checked before it could overflow.
    const std::uint64_t iterations = program.loops.back().iterations;
    if (iterations > kMaxProgramReferences - refs_per_rep ||
        (program.outer_reps != 0 &&
         refs_per_rep + iterations >
             kMaxProgramReferences / program.outer_reps)) {
      throw DslParseError(line_no,
                          "reference count exceeds the budget of " +
                              std::to_string(kMaxProgramReferences));
    }
    refs_per_rep += iterations;
  }

  if (in_loop) throw DslParseError(line_no, "unterminated loop");
  if (!saw_header) throw DslParseError(line_no, "empty program");
  return program;
}

std::string print_program(const Program& program) {
  std::ostringstream out;
  out << "program " << program.name << " seed=" << program.seed
      << " reps=" << program.outer_reps << "\n";
  for (const Loop& loop : program.loops) {
    out << "loop " << loop.iterations << " {\n";
    for (const StaticInst& inst : loop.body) {
      out << "  pc" << inst.pc << ": ";
      std::visit(PatternPrinter{out}, inst.pattern);
      out << " compute=" << inst.compute_cycles;
      if (inst.serial_dependent) out << " serial";
      if (inst.is_store) out << " store";
      if (inst.prefetch) {
        out << " ; " << hint_name(inst.prefetch->hint) << " "
            << (inst.prefetch->distance_bytes >= 0 ? "+" : "")
            << inst.prefetch->distance_bytes;
      }
      out << "\n";
    }
    out << "}\n";
  }
  return out.str();
}

}  // namespace re::workloads
