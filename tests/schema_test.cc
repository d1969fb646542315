#include "common/schema.h"

#include <gtest/gtest.h>

namespace streamrel {
namespace {

Schema MakeSchema() {
  return Schema({Column("id", DataType::kInt64, "t"),
                 Column("name", DataType::kString, "t"),
                 Column("ts", DataType::kTimestamp, "t")});
}

TEST(SchemaTest, IndexOfByName) {
  Schema s = MakeSchema();
  EXPECT_EQ(s.IndexOf("name").value(), 1u);
  EXPECT_EQ(s.IndexOf("NAME").value(), 1u);  // case-insensitive
  EXPECT_FALSE(s.IndexOf("missing").has_value());
}

TEST(SchemaTest, IndexOfWithQualifier) {
  Schema s = MakeSchema();
  EXPECT_EQ(s.IndexOf("id", "t").value(), 0u);
  EXPECT_FALSE(s.IndexOf("id", "u").has_value());
}

TEST(SchemaTest, FindColumnAmbiguity) {
  Schema s = Schema({Column("x", DataType::kInt64, "a"),
                     Column("x", DataType::kInt64, "b")});
  auto r = s.FindColumn("x");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
  auto qualified = s.FindColumn("x", "b");
  ASSERT_TRUE(qualified.ok());
  EXPECT_EQ(*qualified, 1u);
}

TEST(SchemaTest, FindColumnNotFound) {
  auto r = MakeSchema().FindColumn("zzz");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(SchemaTest, Concat) {
  Schema a({Column("x", DataType::kInt64, "a")});
  Schema b({Column("y", DataType::kString, "b")});
  Schema c = Schema::Concat(a, b);
  ASSERT_EQ(c.num_columns(), 2u);
  EXPECT_EQ(c.column(0).name, "x");
  EXPECT_EQ(c.column(1).name, "y");
  EXPECT_EQ(c.column(1).qualifier, "b");
}

TEST(SchemaTest, WithQualifier) {
  Schema q = MakeSchema().WithQualifier("alias");
  for (const Column& col : q.columns()) {
    EXPECT_EQ(col.qualifier, "alias");
  }
}

TEST(SchemaTest, Equals) {
  EXPECT_TRUE(MakeSchema().Equals(MakeSchema().WithQualifier("other")));
  Schema different({Column("id", DataType::kString, "t")});
  EXPECT_FALSE(MakeSchema().Equals(different));
}

TEST(RowTest, SerializeRoundTrip) {
  Row row = {Value::Int64(1), Value::String("a"), Value::Null()};
  std::string buf;
  SerializeRow(row, &buf);
  size_t offset = 0;
  auto r = DeserializeRow(buf, &offset);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ((*r)[0].AsInt64(), 1);
  EXPECT_EQ((*r)[1].AsString(), "a");
  EXPECT_TRUE((*r)[2].is_null());
  EXPECT_EQ(offset, buf.size());
}

TEST(RowTest, HostileArityIsBoundedByData) {
  // A 2^32-1 value count followed by 16 bytes: the count must not size an
  // allocation; decoding fails when the bytes run out.
  uint32_t n = 0xFFFFFFFFu;
  std::string buf(reinterpret_cast<const char*>(&n), sizeof(n));
  buf += std::string(16, static_cast<char>(DataType::kNull));
  size_t offset = 0;
  EXPECT_FALSE(DeserializeRow(buf, &offset).ok());
}

TEST(RowTest, SerializeManyRowsSequentially) {
  std::string buf;
  for (int i = 0; i < 10; ++i) {
    SerializeRow({Value::Int64(i)}, &buf);
  }
  size_t offset = 0;
  for (int i = 0; i < 10; ++i) {
    auto r = DeserializeRow(buf, &offset);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0].AsInt64(), i);
  }
}

TEST(RowTest, RowToString) {
  EXPECT_EQ(RowToString({Value::Int64(1), Value::String("x")}), "(1, x)");
  EXPECT_EQ(RowToString({}), "()");
}

}  // namespace
}  // namespace streamrel
