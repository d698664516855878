# Golden output digests. Runs the dynaddr CLI over a fixed set of
# scenarios inside WORK, hashes every file written and every stdout, and
# compares the hashes with DIGESTS. A mismatch names each artifact that
# changed, appeared or went missing.
#
#   cmake -DEXE=<dynaddr> -DDIGESTS=<digests.txt> -DWORK=<dir>
#         [-DUPDATE=ON] -P check_digests.cmake
#
# UPDATE=ON rewrites DIGESTS from this run instead of comparing. A change
# that alters output on purpose regenerates the file that way and names
# the change. Commands run with fixed relative paths, because stdout
# echoes the --out and --audit paths.
cmake_policy(VERSION 3.16)
get_filename_component(EXE "${EXE}" ABSOLUTE)
get_filename_component(WORK "${WORK}" ABSOLUTE)
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# run(<name> <args>...): dynaddr <args> in WORK, stdout to <name>.stdout.
function(run name)
  execute_process(COMMAND "${EXE}" ${ARGN} WORKING_DIRECTORY "${WORK}"
                  OUTPUT_FILE "${WORK}/${name}.stdout"
                  ERROR_VARIABLE err RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    list(JOIN ARGN " " command)
    message(FATAL_ERROR "dynaddr ${command} exited with ${status}:\n${err}")
  endif()
endfunction()

# simulate_and_analyze(<out> <ledger file> <simulate args>...)
function(simulate_and_analyze out ledger)
  run(${out}.simulate simulate ${ARGN} --out ${out} --cause-ledger ${ledger})
  run(${out}.analyze analyze --data ${out} --report all --audit ${ledger})
endfunction()

foreach(preset quick outage paper)
  foreach(ledger dcl csv)
    simulate_and_analyze(${preset}_${ledger} ${preset}_${ledger}.${ledger}
                         --preset ${preset} --format both)
  endforeach()
endforeach()
simulate_and_analyze(chaos chaos.dcl --preset quick --fault-plan chaos)
simulate_and_analyze(scale34 scale34.dcl --preset quick --scale 34
                     --format binary)

file(GLOB_RECURSE artifacts RELATIVE "${WORK}" "${WORK}/*")
list(SORT artifacts)
set(actual "")
foreach(artifact IN LISTS artifacts)
  file(SHA256 "${WORK}/${artifact}" hash)
  string(APPEND actual "${hash}  ${artifact}\n")
  set(actual_${artifact} ${hash})
endforeach()

if(UPDATE)
  file(WRITE "${DIGESTS}" "${actual}")
  list(LENGTH artifacts count)
  message(STATUS "wrote ${count} digests to ${DIGESTS}")
  file(REMOVE_RECURSE "${WORK}")
  return()
endif()

file(STRINGS "${DIGESTS}" expected_lines)
set(problems "")
set(expected_artifacts "")
foreach(line IN LISTS expected_lines)
  string(REGEX MATCH "^([0-9a-f]+)  (.+)$" _ "${line}")
  set(hash ${CMAKE_MATCH_1})
  set(artifact ${CMAKE_MATCH_2})
  list(APPEND expected_artifacts ${artifact})
  if(NOT DEFINED actual_${artifact})
    string(APPEND problems "  missing:  ${artifact}\n")
  elseif(NOT actual_${artifact} STREQUAL hash)
    string(APPEND problems "  changed:  ${artifact}\n")
  endif()
endforeach()
foreach(artifact IN LISTS artifacts)
  if(NOT artifact IN_LIST expected_artifacts)
    string(APPEND problems "  new:      ${artifact}\n")
  endif()
endforeach()

if(NOT problems STREQUAL "")
  message(FATAL_ERROR
    "output differs from ${DIGESTS}:\n${problems}"
    "The outputs are kept in ${WORK}. If the change is intended, "
    "regenerate the digests with\n"
    "  cmake -DEXE=${EXE} -DDIGESTS=${DIGESTS} -DWORK=${WORK} -DUPDATE=ON "
    "-P ${CMAKE_CURRENT_LIST_FILE}\n"
    "and name the change.")
endif()
file(REMOVE_RECURSE "${WORK}")
