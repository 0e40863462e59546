#include "src/obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "src/base/check.h"

namespace obs {

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  // Shortest representation that round-trips binary64.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
  // Keep the number recognizably floating-point so readers preserve the int/double split.
  if (out->find_first_of(".eE", out->size() - static_cast<size_t>(res.ptr - buf)) ==
      std::string::npos) {
    out->append(".0");
  }
}

}  // namespace

void Json::Append(Json v) {
  HEXLLM_CHECK_MSG(type_ == Type::kArray, "Json::Append on non-array");
  arr_.push_back(std::move(v));
}

void Json::Set(std::string_view key, Json v) {
  HEXLLM_CHECK_MSG(type_ == Type::kObject, "Json::Set on non-object");
  for (auto& [k, val] : obj_) {
    if (k == key) {
      val = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::string(key), std::move(v));
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent >= 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kInt:
      out->append(std::to_string(int_));
      break;
    case Type::kDouble:
      AppendDouble(out, double_);
      break;
    case Type::kString:
      AppendEscaped(out, str_);
      break;
    case Type::kArray: {
      if (arr_.empty()) {
        out->append("[]");
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
          if (indent < 0) {
            out->push_back(' ');
          }
        }
        newline(depth + 1);
        arr_[i].DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out->append("{}");
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) {
          out->push_back(',');
          if (indent < 0) {
            out->push_back(' ');
          }
        }
        first = false;
        newline(depth + 1);
        AppendEscaped(out, k);
        out->append(": ");
        v.DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = std::fclose(f) == 0 && written == text.size();
  return ok;
}

}  // namespace obs
