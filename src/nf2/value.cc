#include "nf2/value.h"

#include <sstream>

namespace codlock::nf2 {

Status Value::Validate(const Catalog& catalog, AttrId attr) const {
  const AttrDef& def = catalog.attr(attr);
  if (def.kind != kind_) {
    return Status::InvalidArgument(
        "value kind " + std::string(AttrKindName(kind_)) +
        " does not match attribute '" + catalog.AttrPath(attr) + "' of kind " +
        std::string(AttrKindName(def.kind)));
  }
  switch (kind_) {
    case AttrKind::kString:
    case AttrKind::kInt:
    case AttrKind::kReal:
    case AttrKind::kBool:
      return Status::OK();
    case AttrKind::kRef: {
      const RefValue& ref = as_ref();
      if (ref.relation != def.ref_target) {
        return Status::InvalidArgument(
            "reference value at '" + catalog.AttrPath(attr) +
            "' targets relation " + std::to_string(ref.relation) +
            " but the schema declares " + std::to_string(def.ref_target));
      }
      if (ref.object == kInvalidObject) {
        return Status::InvalidArgument("null reference at '" +
                                       catalog.AttrPath(attr) + "'");
      }
      return Status::OK();
    }
    case AttrKind::kSet:
    case AttrKind::kList: {
      AttrId elem = def.children[0];
      for (const Value& child : children()) {
        CODLOCK_RETURN_IF_ERROR(child.Validate(catalog, elem));
      }
      return Status::OK();
    }
    case AttrKind::kTuple: {
      if (children().size() != def.children.size()) {
        return Status::InvalidArgument(
            "tuple value at '" + catalog.AttrPath(attr) + "' has " +
            std::to_string(children().size()) + " fields, schema declares " +
            std::to_string(def.children.size()));
      }
      for (size_t i = 0; i < children().size(); ++i) {
        CODLOCK_RETURN_IF_ERROR(
            children()[i].Validate(catalog, def.children[i]));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable value kind");
}

size_t Value::TreeSize() const {
  if (is_atomic() || is_ref()) return 1;
  size_t n = 1;
  for (const Value& child : children()) n += child.TreeSize();
  return n;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (kind_) {
    case AttrKind::kString:
      os << '\'' << as_string() << '\'';
      break;
    case AttrKind::kInt:
      os << as_int();
      break;
    case AttrKind::kReal:
      os << as_real();
      break;
    case AttrKind::kBool:
      os << (as_bool() ? "true" : "false");
      break;
    case AttrKind::kRef:
      os << "ref(" << as_ref().relation << ":" << as_ref().object << ")";
      break;
    case AttrKind::kSet:
    case AttrKind::kList: {
      os << (kind_ == AttrKind::kSet ? '{' : '[');
      bool first = true;
      for (const Value& c : children()) {
        if (!first) os << ", ";
        first = false;
        os << c.ToString();
      }
      os << (kind_ == AttrKind::kSet ? '}' : ']');
      break;
    }
    case AttrKind::kTuple: {
      os << '(';
      bool first = true;
      for (const Value& c : children()) {
        if (!first) os << ", ";
        first = false;
        os << c.ToString();
      }
      os << ')';
      break;
    }
  }
  return os.str();
}

std::string PathToString(const Path& path) {
  std::string out;
  for (const PathStep& step : path) {
    if (!out.empty()) out += '.';
    out += step.attr_name;
    // Appended piece by piece: GCC 12 at -O3 reports a false
    // -Wrestrict overlap in the inlined temporaries of `"[" + s + "]"`.
    if (!step.elem_key.empty()) {
      out += "['";
      out += step.elem_key;
      out += "']";
    } else if (step.index >= 0) {
      out += '[';
      out += std::to_string(step.index);
      out += ']';
    }
  }
  return out;
}

}  // namespace codlock::nf2
