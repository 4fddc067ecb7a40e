# Docs-consistency check, registered with CTest as `docs_consistency`.
#
# Fails when the documentation drifts from the build:
#   * every "<N> ... suites" claim in README/docs must equal the real
#     number of CTest C++ suites (SUITE_COUNT, from TPUPERF_TEST_SUITES);
#   * every bench binary the build defines must be documented in
#     docs/BENCHMARKS.md;
#   * every environment variable the sources (src/, bench/, examples/) read
#     via getenv() must be documented in
#     docs/BENCHMARKS.md's env-var matrix, and every TPUPERF_*/REPRO_*
#     variable that matrix lists must be read by some source there, so a
#     deleted knob cannot linger in the docs and a knob moved into an
#     example cannot go undocumented;
#   * every backticked namespaced identifier in README/docs (`nn::X`,
#     `core::X`, `serve::X`, ...) must still appear as a word in src/, so
#     docs cannot keep naming a deleted symbol;
#   * docs/ARCHITECTURE.md and docs/BENCHMARKS.md must exist and be linked
#     from README.md.
#
# Invoked as:
#   cmake -DREPO_ROOT=... -DSUITE_COUNT=N -DSUITE_LIST=a;b;c
#         -DBENCH_LIST=x;y;z -P docs_consistency.cmake

set(failures "")

file(READ "${REPO_ROOT}/README.md" readme)

# ---- Required docs exist and are linked from the README ---------------------
foreach(doc ARCHITECTURE BENCHMARKS)
  if(NOT EXISTS "${REPO_ROOT}/docs/${doc}.md")
    list(APPEND failures "docs/${doc}.md is missing")
  endif()
  string(FIND "${readme}" "docs/${doc}.md" link_idx)
  if(link_idx EQUAL -1)
    list(APPEND failures "README.md does not link docs/${doc}.md")
  endif()
endforeach()

set(benchdoc "")
if(EXISTS "${REPO_ROOT}/docs/BENCHMARKS.md")
  file(READ "${REPO_ROOT}/docs/BENCHMARKS.md" benchdoc)
endif()
set(archdoc "")
if(EXISTS "${REPO_ROOT}/docs/ARCHITECTURE.md")
  file(READ "${REPO_ROOT}/docs/ARCHITECTURE.md" archdoc)
endif()

# ---- Suite-count claims -----------------------------------------------------
# Every "<N> GoogleTest suites" / "<N> test suites" phrase anywhere in the
# README or docs must name the actual count the build registers.
set(all_docs "${readme}\n${benchdoc}\n${archdoc}")
string(REGEX MATCHALL "[0-9]+ (GoogleTest|GoogleTest test|C\\+\\+ test|test) suites"
       claims "${all_docs}")
if(claims STREQUAL "")
  list(APPEND failures
       "no suite-count claim (\"<N> test suites\") found in README/docs")
endif()
foreach(claim IN LISTS claims)
  string(REGEX MATCH "^[0-9]+" claimed "${claim}")
  if(NOT claimed EQUAL ${SUITE_COUNT})
    list(APPEND failures
         "suite-count claim \"${claim}\" does not match the ${SUITE_COUNT} suites the build registers")
  endif()
endforeach()

# ---- Every suite source exists ----------------------------------------------
foreach(suite IN LISTS SUITE_LIST)
  if(NOT EXISTS "${REPO_ROOT}/tests/${suite}.cpp")
    list(APPEND failures "suite ${suite} has no tests/${suite}.cpp")
  endif()
endforeach()

# ---- Every bench binary is documented ---------------------------------------
foreach(bench IN LISTS BENCH_LIST)
  string(FIND "${benchdoc}" "${bench}" bench_idx)
  if(bench_idx EQUAL -1)
    list(APPEND failures
         "bench binary ${bench} is not documented in docs/BENCHMARKS.md")
  endif()
endforeach()

# ---- Every environment variable the sources read is documented --------------
# Reads happen through getenv("NAME"), with the name on the call's line or
# wrapped onto the next.
file(GLOB_RECURSE source_files
     "${REPO_ROOT}/src/*.cpp" "${REPO_ROOT}/src/*.h"
     "${REPO_ROOT}/bench/*.cpp" "${REPO_ROOT}/bench/*.h"
     "${REPO_ROOT}/examples/*.cpp" "${REPO_ROOT}/examples/*.h")
set(env_vars "")
foreach(source_file IN LISTS source_files)
  file(READ "${source_file}" content)
  string(REGEX MATCHALL "getenv\\([ \t\r\n]*\"[A-Z_]+\"" reads "${content}")
  foreach(read IN LISTS reads)
    string(REGEX REPLACE ".*\"([A-Z_]+)\".*" "\\1" var "${read}")
    list(APPEND env_vars "${var}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES env_vars)
list(LENGTH env_vars env_var_count)
if(env_var_count EQUAL 0)
  list(APPEND failures "env-var scan found nothing: the scan itself is broken")
endif()
foreach(var IN LISTS env_vars)
  string(FIND "${benchdoc}" "${var}" var_idx)
  if(var_idx EQUAL -1)
    list(APPEND failures
         "env var ${var} (read by the sources) is not documented in docs/BENCHMARKS.md")
  endif()
endforeach()

# ...and every variable the matrix lists (first column) is still read.
string(REGEX MATCHALL "\n\\| `(TPUPERF|REPRO)_[A-Z_]+` \\|" rows "${benchdoc}")
if(rows STREQUAL "")
  list(APPEND failures "env-var matrix scan found nothing: the scan itself is broken")
endif()
foreach(row IN LISTS rows)
  string(REGEX REPLACE ".*`([A-Z_]+)`.*" "\\1" var "${row}")
  list(FIND env_vars "${var}" read_idx)
  if(read_idx EQUAL -1)
    list(APPEND failures
         "docs/BENCHMARKS.md documents env var ${var}, but no source in src/, bench/ or examples/ reads it")
  endif()
endforeach()

# ---- Every namespaced identifier the docs name exists in src/ ---------------
# Scans inline code spans only; `tpuperf::nn::X` counts as `nn::X`.
file(GLOB docs_files "${REPO_ROOT}/docs/*.md")
set(doc_identifiers "")
foreach(doc_file IN ITEMS "${REPO_ROOT}/README.md" ${docs_files})
  file(READ "${doc_file}" content)
  string(REGEX MATCHALL "`[^`\n]+`" spans "${content}")
  foreach(span IN LISTS spans)
    string(REGEX MATCHALL
           "(^|[^A-Za-z0-9_])(nn|core|serve|plan|data|feat|tune|ir|analytical)::[A-Za-z_][A-Za-z0-9_]*"
           names "${span}")
    foreach(name IN LISTS names)
      string(REGEX MATCH "[a-z]+::[A-Za-z0-9_]+$" name "${name}")
      list(APPEND doc_identifiers "${name}")
    endforeach()
  endforeach()
endforeach()
list(REMOVE_DUPLICATES doc_identifiers)
list(LENGTH doc_identifiers doc_identifier_count)
if(doc_identifier_count EQUAL 0)
  list(APPEND failures
       "doc identifier scan found nothing: the scan itself is broken")
endif()
file(GLOB_RECURSE src_files "${REPO_ROOT}/src/*.cpp" "${REPO_ROOT}/src/*.h")
set(src_text "")
foreach(src_file IN LISTS src_files)
  file(READ "${src_file}" content)
  string(APPEND src_text "\n${content}")
endforeach()
foreach(name IN LISTS doc_identifiers)
  string(REGEX REPLACE "^[a-z]+::" "" symbol "${name}")
  string(REGEX MATCH "[^A-Za-z0-9_]${symbol}[^A-Za-z0-9_]" found "${src_text}")
  if(found STREQUAL "")
    list(APPEND failures
         "docs name `${name}`, but ${symbol} appears nowhere in src/")
  endif()
endforeach()

# ---- Verdict ----------------------------------------------------------------
list(LENGTH failures failure_count)
if(failure_count GREATER 0)
  foreach(failure IN LISTS failures)
    message(SEND_ERROR "docs_consistency: ${failure}")
  endforeach()
  message(FATAL_ERROR "docs_consistency: ${failure_count} inconsistencies")
endif()
message(STATUS
        "docs_consistency: OK (${SUITE_COUNT} suites, ${env_var_count} env vars, ${doc_identifier_count} doc identifiers checked)")
