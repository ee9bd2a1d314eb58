#include "db/value.h"

#include <cstdio>

#include "common/logging.h"

namespace viewmat::db {

void Value::AssignString(const char* data, size_t len) {
  if (std::string* s = std::get_if<std::string>(&rep_)) {
    s->assign(data, len);
  } else {
    rep_.emplace<std::string>(data, len);
  }
}

double Value::Numeric() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kDouble:
      return AsDouble();
    case ValueType::kString:
      break;
  }
  VIEWMAT_CHECK_MSG(false, "Numeric() on a string value");
  return 0.0;
}

int Value::Compare(const Value& other) const {
  VIEWMAT_CHECK_MSG(type() == other.type(), "comparing mismatched types");
  switch (type()) {
    case ValueType::kInt64: {
      const int64_t a = AsInt64(), b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kDouble: {
      const double a = AsDouble(), b = other.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kString:
      return AsString().compare(other.AsString()) < 0
                 ? -1
                 : (AsString() == other.AsString() ? 0 : 1);
  }
  return 0;
}

std::string Value::ToString() const {
  char buf[32];
  switch (type()) {
    case ValueType::kInt64:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(AsInt64()));
      return buf;
    case ValueType::kDouble:
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

uint64_t Value::Hash() const {
  auto mix = [](uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  switch (type()) {
    case ValueType::kInt64:
      return mix(static_cast<uint64_t>(AsInt64()));
    case ValueType::kDouble: {
      uint64_t bits;
      const double d = AsDouble();
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return mix(bits ^ 0x5851f42d4c957f2dULL);
    }
    case ValueType::kString: {
      // FNV-1a, then mixed.
      uint64_t h = 0xcbf29ce484222325ULL;
      for (const char c : AsString()) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ULL;
      }
      return mix(h);
    }
  }
  return 0;
}

}  // namespace viewmat::db
