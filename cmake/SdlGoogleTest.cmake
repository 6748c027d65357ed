# GoogleTest integration: prefer the system package (libgtest-dev),
# fall back to FetchContent when no system copy exists and downloads
# are allowed. Exposes the imported target `sdlbench::gtest_main`.

find_package(GTest QUIET)

if(GTest_FOUND)
  message(STATUS "sdlbench: using system GoogleTest")
  add_library(sdlbench_gtest_main INTERFACE)
  target_link_libraries(sdlbench_gtest_main INTERFACE GTest::gtest_main GTest::gtest)
else()
  message(STATUS "sdlbench: system GoogleTest not found, fetching v1.14.0")
  include(FetchContent)
  FetchContent_Declare(
    googletest
    URL https://github.com/google/googletest/archive/refs/tags/v1.14.0.zip
    DOWNLOAD_EXTRACT_TIMESTAMP TRUE
  )
  set(BUILD_GMOCK OFF CACHE BOOL "" FORCE)
  set(INSTALL_GTEST OFF CACHE BOOL "" FORCE)
  FetchContent_MakeAvailable(googletest)
  add_library(sdlbench_gtest_main INTERFACE)
  target_link_libraries(sdlbench_gtest_main INTERFACE gtest_main gtest)
endif()

add_library(sdlbench::gtest_main ALIAS sdlbench_gtest_main)
include(GoogleTest)
