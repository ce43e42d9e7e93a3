// Umbrella header for the core/ layer: instances, assignments, scoring,
// every CRA/JRA solver, the string-keyed solver registry, metrics,
// repair, online updates, the SGRAP reduction and case-study reporting.
// Programs that also want the data layer (CSV I/O, synthetic generators)
// should include the top-level "wgrap.h" instead.
//
// Quick start (see examples/quickstart.cc for a runnable version):
//
//   auto dataset = wgrap::data::GenerateConferenceDataset(
//       wgrap::data::Area::kDatabases, 2008, {});
//   wgrap::core::InstanceParams params;
//   params.group_size = 3;
//   auto instance = wgrap::core::Instance::FromDataset(*dataset, params);
//   auto assignment = wgrap::core::SolverRegistry::Default().SolveCra(
//       "sdga-sra", *instance);
//   printf("coverage score: %.3f\n", assignment->TotalScore());
#ifndef WGRAP_CORE_WGRAP_H_
#define WGRAP_CORE_WGRAP_H_

#include "core/assignment.h"   // IWYU pragma: export
#include "core/case_study.h"   // IWYU pragma: export
#include "core/cra.h"          // IWYU pragma: export
#include "core/instance.h"     // IWYU pragma: export
#include "core/jra.h"          // IWYU pragma: export
#include "core/metrics.h"      // IWYU pragma: export
#include "core/registry.h"     // IWYU pragma: export
#include "core/repair.h"       // IWYU pragma: export
#include "core/scoring.h"      // IWYU pragma: export
#include "core/sgrap.h"        // IWYU pragma: export
#include "core/update.h"       // IWYU pragma: export
#include "sparse/sparse_matrix.h"  // IWYU pragma: export

#endif  // WGRAP_CORE_WGRAP_H_
