# Golden gate for the registered scenarios.  Run with `cmake -P`:
#
#   -DSIM=<tfmcc_sim> -DSCENARIO=<name> -DGOLDEN_DIR=<tests/golden>
#       Run the scenario at its defaults and compare the SHA-256 of its
#       stdout, stderr and exit code with scenarios.sha256, and its CHECK
#       lines with the scenario's rows of checks.tsv.
#   -DSIM=<tfmcc_sim> -DSCENARIO=<name> -DRECORD_DIR=<dir>
#       Write <dir>/<name>.sha256 and <dir>/<name>.tsv instead (used by
#       tools/update_goldens).
#   -DSIM=<tfmcc_sim> -DLIST=1 -DGOLDEN_DIR=<tests/golden>
#       Check that scenarios.sha256 names exactly the scenarios that
#       `tfmcc_sim --list` registers.
#
# checks.tsv rows are `scenario<TAB>PASS|DIVERGES<TAB>claim`.  CMake lists
# split on ';' and treat '[' ']' specially, so those characters are masked
# while rows travel as list elements and restored for printing.

cmake_minimum_required(VERSION 3.20)

function(mask out text)
  string(REPLACE ";" "@SEMI@" text "${text}")
  string(REPLACE "[" "@LBR@" text "${text}")
  string(REPLACE "]" "@RBR@" text "${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

function(unmask out text)
  string(REPLACE "@SEMI@" ";" text "${text}")
  string(REPLACE "@LBR@" "[" text "${text}")
  string(REPLACE "@RBR@" "]" text "${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

# Masked lines of `text`, one list element per non-empty line.
function(masked_lines out text)
  mask(text "${text}")
  string(REGEX MATCHALL "[^\n]+" lines "${text}")
  set(${out} "${lines}" PARENT_SCOPE)
endfunction()

if(NOT SIM)
  message(FATAL_ERROR "golden.cmake: -DSIM=<tfmcc_sim> is required")
endif()

if(LIST)
  execute_process(COMMAND "${SIM}" --list OUTPUT_VARIABLE listing
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tfmcc_sim --list exited with ${rc}")
  endif()
  # Scenario lines start in column 0 with the name; parameters are indented.
  string(REGEX MATCHALL "(^|\n)[a-z0-9_]+" registered "${listing}")
  list(TRANSFORM registered STRIP)
  list(SORT registered)
  file(STRINGS "${GOLDEN_DIR}/scenarios.sha256" digest_lines)
  list(TRANSFORM digest_lines REPLACE "^[0-9a-f]+  " "")
  list(SORT digest_lines)
  if(NOT registered STREQUAL digest_lines)
    set(missing ${registered})
    list(REMOVE_ITEM missing ${digest_lines})
    set(stale ${digest_lines})
    list(REMOVE_ITEM stale ${registered})
    message(FATAL_ERROR "scenarios.sha256 does not match tfmcc_sim --list\n"
            "  registered but not recorded: ${missing}\n"
            "  recorded but not registered: ${stale}\n"
            "Run tools/update_goldens to re-record.")
  endif()
  return()
endif()

execute_process(COMMAND "${SIM}" "${SCENARIO}"
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
string(SHA256 digest "${out}\n-- stderr --\n${err}\n-- exit ${rc} --\n")

# This run's CHECK rows, masked.
mask(masked_out "${out}")
string(REGEX MATCHALL "(^|\n)CHECK (PASS|DIVERGES): [^\n]*" check_lines
       "${masked_out}")
set(rows "")
foreach(line IN LISTS check_lines)
  string(REGEX REPLACE "^\n?CHECK ([A-Z]+): " "${SCENARIO}\t\\1\t" row
         "${line}")
  list(APPEND rows "${row}")
endforeach()

if(RECORD_DIR)
  file(WRITE "${RECORD_DIR}/${SCENARIO}.sha256" "${digest}  ${SCENARIO}\n")
  set(tsv "")
  foreach(row IN LISTS rows)
    unmask(row "${row}")
    string(APPEND tsv "${row}\n")
  endforeach()
  file(WRITE "${RECORD_DIR}/${SCENARIO}.tsv" "${tsv}")
  return()
endif()

file(STRINGS "${GOLDEN_DIR}/scenarios.sha256" recorded
     REGEX "^[0-9a-f]+  ${SCENARIO}$")
string(REGEX REPLACE "  .*" "" recorded "${recorded}")

file(READ "${GOLDEN_DIR}/checks.tsv" tsv_text)
masked_lines(tsv_lines "${tsv_text}")
set(expected "")
foreach(line IN LISTS tsv_lines)
  if(line MATCHES "^${SCENARIO}\t")
    list(APPEND expected "${line}")
  endif()
endforeach()

set(report "")
if(NOT recorded)
  string(APPEND report "no digest recorded for ${SCENARIO} in scenarios.sha256\n")
elseif(NOT recorded STREQUAL digest)
  string(APPEND report "${SCENARIO}: default output changed\n"
         "  recorded ${recorded}\n  now      ${digest}\n")
endif()
set(gone ${expected})
if(rows)
  list(REMOVE_ITEM gone ${rows})
endif()
set(new ${rows})
if(expected)
  list(REMOVE_ITEM new ${expected})
endif()
foreach(row IN LISTS gone)
  unmask(row "${row}")
  string(APPEND report "  CHECK row no longer printed: ${row}\n")
endforeach()
foreach(row IN LISTS new)
  unmask(row "${row}")
  string(APPEND report "  CHECK row not in checks.tsv: ${row}\n")
endforeach()
if(report)
  message(FATAL_ERROR "${report}"
          "If the change is intended, run tools/update_goldens and review "
          "the diff of tests/golden/.")
endif()
message(STATUS "${SCENARIO}: ${digest} (${rc}), CHECK rows match")
