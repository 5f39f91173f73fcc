#include "record/value.h"

namespace tcob {

const char* AttrTypeName(AttrType t) {
  switch (t) {
    case AttrType::kBool:
      return "BOOL";
    case AttrType::kInt:
      return "INT";
    case AttrType::kDouble:
      return "DOUBLE";
    case AttrType::kString:
      return "STRING";
    case AttrType::kTimestamp:
      return "TIMESTAMP";
    case AttrType::kId:
      return "ID";
  }
  return "?";
}

Result<AttrType> AttrTypeFromName(const std::string& name) {
  if (name == "BOOL") return AttrType::kBool;
  if (name == "INT") return AttrType::kInt;
  if (name == "DOUBLE") return AttrType::kDouble;
  if (name == "STRING") return AttrType::kString;
  if (name == "TIMESTAMP") return AttrType::kTimestamp;
  if (name == "ID") return AttrType::kId;
  return Status::InvalidArgument("unknown attribute type: " + name);
}

namespace {

bool IsNumeric(AttrType t) {
  return t == AttrType::kInt || t == AttrType::kDouble;
}

// INT literals compare against TIMESTAMP and ID attributes (query text
// has no dedicated literal syntax for either).
bool IntLike(AttrType t) {
  return t == AttrType::kInt || t == AttrType::kTimestamp ||
         t == AttrType::kId;
}

template <typename T>
int Cmp(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

Result<int> Value::Compare(const Value& other) const {
  const bool compatible =
      type_ == other.type_ || (IsNumeric(type_) && IsNumeric(other.type_)) ||
      (IntLike(type_) && IntLike(other.type_) &&
       (type_ == AttrType::kInt || other.type_ == AttrType::kInt));
  if (!compatible) {
    return Status::TypeError(std::string("cannot compare ") +
                             AttrTypeName(type_) + " with " +
                             AttrTypeName(other.type_));
  }
  if (null_ || other.null_) {
    if (null_ && other.null_) return 0;
    return null_ ? -1 : 1;
  }
  if (IsNumeric(type_) &&
      (type_ == AttrType::kDouble || other.type_ == AttrType::kDouble)) {
    return Cmp(NumericValue(), other.NumericValue());
  }
  switch (type_) {
    case AttrType::kBool:
      return Cmp(AsBool(), other.AsBool());
    case AttrType::kInt:
    case AttrType::kTimestamp:
    case AttrType::kId:
      return Cmp(AsInt(), other.AsInt());
    case AttrType::kDouble:
      return Cmp(AsDouble(), other.AsDouble());
    case AttrType::kString:
      return Cmp(AsString(), other.AsString());
  }
  return Status::Internal("unreachable value type");
}

bool Value::Equals(const Value& other) const {
  Result<int> c = Compare(other);
  return c.ok() && c.value() == 0;
}

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case AttrType::kBool:
      return AsBool() ? "true" : "false";
    case AttrType::kInt:
      return std::to_string(AsInt());
    case AttrType::kDouble: {
      std::string s = std::to_string(AsDouble());
      return s;
    }
    case AttrType::kString:
      return "'" + AsString() + "'";
    case AttrType::kTimestamp:
      return std::string("t").append(TimestampToString(AsTime()));
    case AttrType::kId:
      return std::string("#").append(std::to_string(AsId()));
  }
  return "?";
}

}  // namespace tcob
