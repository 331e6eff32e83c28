// Seeded violations: knob-registry rows that disagree with the knob
// table in this directory's README.md — one knob the table never
// documents, and one whose table default differs from the row's.
namespace fixture
{

struct KnobRow
{
    const char *name;
    unsigned long min, max;
    double def;
};

constexpr KnobRow kKnobs[] = {
    {"IRONHIDE_SCALE", 0, 0, 2.0},      // VIOLATION: README says 1.0
    {"IH_FIXTURE_BOGUS_KNOB", 0, 8, 0}, // VIOLATION: not in the README
};

} // namespace fixture
