// Seeded violations: functions a header declares that nothing
// references. The self-test maps this file under src/, so the
// unused-api rule reads its declarations; the references it may count
// are the other fixture files and the non-declaration lines here.
#ifndef FIXTURE_UNUSED_API_HH
#define FIXTURE_UNUSED_API_HH

namespace fixture
{

class Gauge
{
  public:
    explicit Gauge(int v) : value_(v) {}

    /** Referenced below, by the namespace-scope initializer: clean. */
    int reading() const { return value_; }

    int staleReading() const { return value_; } // VIOLATION: no caller

    // A comment naming staleReading() or unusedTotal() is no reference.
    int unusedTotal() const; // VIOLATION: only its definition below

  private:
    int value_;
};

inline int
Gauge::unusedTotal() const
{
    return value_;
}

inline const int kGaugeDefault = Gauge(3).reading();

} // namespace fixture

#endif // FIXTURE_UNUSED_API_HH
