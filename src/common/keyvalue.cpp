#include "common/keyvalue.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

namespace xg {

std::optional<double> ParseFiniteNumber(const std::string& text) {
  // strtod never throws; overflow comes back as +-HUGE_VAL (infinite).
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  const bool whole = !text.empty() && end == text.c_str() + text.size();
  return whole && std::isfinite(v) ? std::optional<double>(v) : std::nullopt;
}

Result<KeyValueDeck> KeyValueDeck::Parse(const std::string& text) {
  auto trim = [](const std::string& s) {
    const size_t b = s.find_first_not_of(" \t");
    const size_t e = s.find_last_not_of(" \t\r");
    return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
  };
  KeyValueDeck deck;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status(ErrorCode::kInvalidArgument, "malformed line: " + line);
    }
    deck.entries_[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }
  return deck;
}

bool KeyValueDeck::TakeString(const std::string& key, std::string& out) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  out = std::move(it->second);
  entries_.erase(it);
  return true;
}

bool KeyValueDeck::Fail(const std::string& key, const std::string& text) {
  if (error_.ok()) {
    error_ = Status(ErrorCode::kInvalidArgument,
                    "bad number for " + key + ": '" + text + "'");
  }
  return false;
}

Status KeyValueDeck::Finish(const std::string& what) const {
  if (!error_.ok() || entries_.empty()) return error_;
  return Status(ErrorCode::kInvalidArgument,
                "unknown " + what + " key: " + entries_.begin()->first);
}

}  // namespace xg
