#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "db/schema.h"
#include "db/tuple.h"

namespace viewmat::db {
namespace {

Schema TestSchema() {
  return Schema({Field::Int64("id"), Field::Double("score"),
                 Field::String("name", 12)});
}

TEST(Schema, OffsetsAndRecordSize) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.record_size(), 28u);
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 8u);
  EXPECT_EQ(s.offset(2), 16u);
  EXPECT_EQ(s.field_count(), 3u);
}

TEST(Schema, FieldIndexLookup) {
  const Schema s = TestSchema();
  EXPECT_EQ(*s.FieldIndex("score"), 1u);
  EXPECT_EQ(s.FieldIndex("missing").status().code(), StatusCode::kNotFound);
}

TEST(Schema, ProjectReordersFields) {
  const Schema s = TestSchema();
  const Schema p = s.Project({2, 0});
  EXPECT_EQ(p.field_count(), 2u);
  EXPECT_EQ(p.field(0).name, "name");
  EXPECT_EQ(p.field(1).name, "id");
  EXPECT_EQ(p.record_size(), 20u);
}

TEST(Schema, ConcatPrefixesNames) {
  const Schema a({Field::Int64("x")});
  const Schema b({Field::Int64("x")});
  const Schema c = Schema::Concat(a, "L", b, "R");
  EXPECT_EQ(c.field(0).name, "L.x");
  EXPECT_EQ(c.field(1).name, "R.x");
  const Schema d = Schema::Concat(a, "", b, "");
  EXPECT_EQ(d.field(0).name, "x");
}

TEST(Schema, Equality) {
  EXPECT_TRUE(TestSchema() == TestSchema());
  const Schema other({Field::Int64("id")});
  EXPECT_FALSE(TestSchema() == other);
}

TEST(Tuple, SerializeDeserializeRoundTrip) {
  const Schema s = TestSchema();
  const Tuple t({Value(int64_t{-42}), Value(3.25), Value(std::string("bob"))});
  std::vector<uint8_t> buf(s.record_size());
  t.Serialize(s, buf.data());
  const Tuple back = Tuple::Deserialize(s, buf.data());
  EXPECT_TRUE(back == t);
}

TEST(Tuple, StringTruncatedToWidth) {
  const Schema s = TestSchema();
  const Tuple t({Value(int64_t{1}), Value(0.0),
                 Value(std::string("a-very-long-name-indeed"))});
  std::vector<uint8_t> buf(s.record_size());
  t.Serialize(s, buf.data());
  const Tuple back = Tuple::Deserialize(s, buf.data());
  EXPECT_EQ(back.at(2).AsString(), "a-very-long-");  // 12 bytes kept
}

TEST(Tuple, EmptyStringRoundTrips) {
  const Schema s = TestSchema();
  const Tuple t({Value(int64_t{1}), Value(0.0), Value(std::string(""))});
  std::vector<uint8_t> buf(s.record_size());
  t.Serialize(s, buf.data());
  EXPECT_EQ(Tuple::Deserialize(s, buf.data()).at(2).AsString(), "");
}

std::vector<uint8_t> Record(const Schema& s, const Tuple& t) {
  std::vector<uint8_t> buf(s.record_size());
  t.Serialize(s, buf.data());
  return buf;
}

TEST(Tuple, DeserializeIntoMatchesDeserializePerType) {
  const Schema ints({Field::Int64("a"), Field::Int64("b")});
  const Schema doubles({Field::Double("x")});
  const Schema strings({Field::String("s", 8), Field::String("t", 3)});
  const std::vector<std::pair<Schema, Tuple>> cases = {
      {ints, Tuple({Value(int64_t{-7}), Value(int64_t{1} << 40)})},
      {doubles, Tuple({Value(-0.125)})},
      {strings,
       Tuple({Value(std::string("abcdefgh")), Value(std::string(""))})},
      {TestSchema(),
       Tuple({Value(int64_t{3}), Value(523.4567), Value(std::string("q"))})},
  };
  for (const auto& [schema, t] : cases) {
    const std::vector<uint8_t> rec = Record(schema, t);
    Tuple into;
    Tuple::DeserializeInto(schema, rec.data(), &into);
    EXPECT_TRUE(into == Tuple::Deserialize(schema, rec.data()));
    EXPECT_TRUE(into == t);
  }
}

TEST(Tuple, DeserializeIntoReusesATupleOfAnotherShape) {
  const Schema s = TestSchema();
  const Tuple want({Value(int64_t{9}), Value(1.5), Value(std::string("ab"))});
  const std::vector<uint8_t> rec = Record(s, want);
  // A longer arity whose slots hold other types, and a longer string in
  // the string slot: neither may leak into the decoded tuple.
  Tuple wider({Value(std::string("not-an-int")), Value(int64_t{4}),
               Value(std::string("a-much-longer-string")), Value(2.0),
               Value(int64_t{5})});
  Tuple::DeserializeInto(s, rec.data(), &wider);
  EXPECT_TRUE(wider == want);
  EXPECT_TRUE(wider == Tuple::Deserialize(s, rec.data()));
  // A shorter arity grows.
  Tuple narrower({Value(int64_t{1})});
  Tuple::DeserializeInto(s, rec.data(), &narrower);
  EXPECT_TRUE(narrower == want);
  // Decoding a second record into the same tuple replaces every field.
  const Tuple next({Value(int64_t{-1}), Value(-2.5), Value(std::string(""))});
  Tuple::DeserializeInto(s, Record(s, next).data(), &wider);
  EXPECT_TRUE(wider == next);
}

TEST(Tuple, DeserializeIntoReadsASchemaPrefix) {
  const Schema full = TestSchema();
  const Schema prefix({Field::Int64("id"), Field::Double("score")});
  const std::vector<uint8_t> rec = Record(
      full, Tuple({Value(int64_t{2}), Value(0.5), Value(std::string("z"))}));
  Tuple t;
  Tuple::DeserializeInto(prefix, rec.data(), &t);
  EXPECT_TRUE(t == Tuple({Value(int64_t{2}), Value(0.5)}));
}

TEST(Tuple, ProjectAndConcat) {
  const Tuple t({Value(int64_t{1}), Value(2.0), Value(std::string("x"))});
  const Tuple p = t.Project({2, 0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.at(0).AsString(), "x");
  EXPECT_EQ(p.at(1).AsInt64(), 1);
  const Tuple joined = Tuple::Concat(p, t);
  EXPECT_EQ(joined.size(), 5u);
  EXPECT_EQ(joined.at(4).AsString(), "x");
}

TEST(Tuple, LexicographicOrder) {
  const Tuple a({Value(int64_t{1}), Value(int64_t{5})});
  const Tuple b({Value(int64_t{1}), Value(int64_t{7})});
  const Tuple c({Value(int64_t{1})});
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(c < a);  // prefix orders first
}

TEST(Tuple, HashStableAndSensitive) {
  const Tuple a({Value(int64_t{1}), Value(int64_t{2})});
  const Tuple b({Value(int64_t{2}), Value(int64_t{1})});
  EXPECT_EQ(a.Hash(), Tuple({Value(int64_t{1}), Value(int64_t{2})}).Hash());
  EXPECT_NE(a.Hash(), b.Hash());  // order matters
}

TEST(Tuple, ToStringReadable) {
  const Tuple t({Value(int64_t{1}), Value(std::string("y"))});
  EXPECT_EQ(t.ToString(), "(1, y)");
}

}  // namespace
}  // namespace viewmat::db
