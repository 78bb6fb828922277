# Run EXE and compare its stdout byte for byte with the file GOLDEN.
#   cmake -DEXE=path/to/binary -DGOLDEN=path/to/golden.txt -P compare_stdout.cmake
execute_process(COMMAND ${EXE} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${EXE} differs from ${GOLDEN}:\n${actual}")
endif()
