// The machine's speed, measured beside every timed pass.
//
// The benchmark shares a VM's cores and caches with other tenants, and their
// load moves the simulator's host time by up to half over minutes. A fixed
// reference workload shaped like the simulator's hot loops (an event heap,
// successor lists, a linear scan of a ready list, a tree map of finish
// times) slows with it: on a 600 s fabric_steady run its time correlated
// 0.81-0.90 with each unit's pass. Dividing a pass by the reference timed
// around it takes the tenants' load out of the figure; the reference is
// this directory's code, so a change to the simulator never moves it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

class Calibration {
 public:
  /// Host seconds of one reference repetition that scale() maps to 1: the
  /// reference's time on a quiet stretch of the machine the benchmark was
  /// defined on, so that normalised figures read close to plain ones there.
  static constexpr double kNominalSeconds = 0.001;
  /// A sample repeats the reference for at least this long.
  static constexpr double kBlockSeconds = 0.01;

  /// Times one block; returns host seconds per repetition. Every
  /// repetition must reproduce the first one's checksum (see ok()).
  double sample();
  /// The factor that maps host time measured at a reference time of
  /// `seconds_per_rep` to host time at the nominal reference speed.
  static double scale(double seconds_per_rep) {
    return kNominalSeconds / seconds_per_rep;
  }

  std::size_t samples() const { return samples_; }
  double fastest() const { return fastest_; }
  double slowest() const { return slowest_; }
  /// False when a repetition's checksum differed from the first one's.
  bool ok() const { return ok_; }

 private:
  std::uint64_t checksum_ = 0;
  std::size_t samples_ = 0;
  double fastest_ = 0.0;
  double slowest_ = 0.0;
  bool ok_ = true;
};

}  // namespace perfbench
