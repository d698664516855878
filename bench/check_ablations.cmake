# Runs exp_ablations (-DEXE=path) and fails unless it exits 0, prints every
# ablation heading, and recovers the planted administrative renumbering.
execute_process(COMMAND ${EXE} RESULT_VARIABLE status OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "exp_ablations exited with ${status}:\n${err}")
endif()
foreach(marker "\nA1 — " "\nA2 — " "\nA3 — " "\nA4 — " "\nA5 — " "\nA6 — "
               "Planted event recovered: YES; false positives: 0")
  string(FIND "${out}" "${marker}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "exp_ablations output lacks '${marker}':\n${out}")
  endif()
endforeach()
