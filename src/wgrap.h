// Single public entry point for the WGRAP library: include "wgrap.h", link
// wgrap::wgrap. Pulls in the full core API (instances, assignments, every
// CRA/JRA solver, the solver registry, metrics, repair, online updates,
// SGRAP and case studies) plus the dataset layer front ends most programs
// need.
//
// Quick start (runnable version: examples/quickstart.cc):
//
//   auto dataset = wgrap::data::GenerateReviewerPool(40, 60, {});
//   wgrap::core::InstanceParams params;
//   params.group_size = 3;
//   auto instance = wgrap::core::Instance::FromDataset(*dataset, params);
//   auto assignment = wgrap::core::SolverRegistry::Default().SolveCra(
//       "sdga-sra", *instance);
//   printf("coverage score: %.3f\n", assignment->TotalScore());
#ifndef WGRAP_WGRAP_H_
#define WGRAP_WGRAP_H_

#include "common/thread_pool.h"  // IWYU pragma: export
#include "core/wgrap.h"          // IWYU pragma: export
#include "data/io.h"             // IWYU pragma: export
#include "data/synthetic_dblp.h" // IWYU pragma: export

#endif  // WGRAP_WGRAP_H_
